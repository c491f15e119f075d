"""Policy sampling, advantage normalization, and the clipped objective."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eviground import policy as P
from eviground.errors import DimMismatchError, ValidationError
from eviground.losses import softmax
from eviground.report import parse_report


@pytest.fixture
def patient(small_cohort):
    return small_cohort.records[small_cohort.split["train"][0]]


class TestSampleGroup:
    def test_seed_determinism(self, patient):
        pol = P.ReportPolicy()
        a = P.sample_group(pol, patient, 4, seed=123)
        b = P.sample_group(pol, patient, 4, seed=123)
        assert [r.choices for r in a.rollouts] == [r.choices for r in b.rollouts]
        assert [r.text for r in a.rollouts] == [r.text for r in b.rollouts]
        assert [r.old_logprob for r in a.rollouts] == [r.old_logprob for r in b.rollouts]

    def test_log_prob_is_sample_old_logprob_bitwise(self):
        # one rule scores a rollout everywhere, so a fresh rollout's ratio is exactly 1
        pol = P.ReportPolicy()
        rng = np.random.default_rng(0)
        for _ in range(50):
            for view in pol.params.values():
                view[...] = rng.normal(0, 1.0, view.shape)
            features = rng.normal(size=P.FEATURE_DIM)
            for choices, old_logprob in pol.sample(features, rng, 4):
                assert pol.log_prob(choices, features) == old_logprob

    def test_near_deterministic_policy_collapses(self, patient):
        pol = P.ReportPolicy()
        for name, _ in pol.slots:
            pol.params[f"{name}.b"][0] = 25.0
        group = P.sample_group(pol, patient, 4, seed=5)
        assert len({r.text for r in group.rollouts}) == 1

    def test_group_size_validated(self, patient):
        with pytest.raises(ValidationError):
            P.sample_group(P.ReportPolicy(), patient, 1, seed=0)

    def test_default_config_matches_paper_setup(self):
        cfg = P.RftConfig()
        assert (cfg.group_size, cfg.epsilon, cfg.beta) == (4, 0.2, 0.1)

    def test_rollout_chosen_positions(self, patient):
        pol = P.ReportPolicy()
        pol.flat[...] = np.random.default_rng(2).normal(0, 0.5, pol.flat.size)
        group = P.sample_group(pol, patient, 8, seed=11)
        for rollout in group.rollouts:
            expected = P._SLOT_START + [rollout.choices[name] for name, _ in pol.slots]
            np.testing.assert_array_equal(rollout.chosen, expected)

    def test_rendered_reports_parse(self, patient):
        pol = P.ReportPolicy()
        group = P.sample_group(pol, patient, 6, seed=9)
        for rollout in group.rollouts:
            parsed = parse_report(rollout.text)
            assert parsed.diagnosis in ("CN", "MCI", "Dementia")


class TestNormalizeAdvantages:
    def test_alternating_rewards(self):
        got = P.normalize_advantages(np.array([1.0, 0.0, 1.0, 0.0]))
        np.testing.assert_allclose(got, [1, -1, 1, -1], atol=1e-6)

    def test_equal_rewards_exactly_zero(self):
        got = P.normalize_advantages(np.array([0.3, 0.3, 0.3, 0.3]))
        assert np.all(got == 0.0)

    @given(st.lists(st.floats(0, 1), min_size=2, max_size=16))
    @settings(max_examples=100)
    def test_mean_zero(self, rewards):
        got = P.normalize_advantages(np.array(rewards))
        assert abs(got.mean()) <= 1e-9

    @given(st.integers(0, 10_000))
    @settings(max_examples=100)
    def test_unit_std_for_distinct(self, seed):
        rng = np.random.default_rng(seed)
        rewards = rng.random(4)
        if np.ptp(rewards) == 0:
            return
        got = P.normalize_advantages(rewards)
        assert got.std() == pytest.approx(1.0, abs=1e-6)


def _one_rollout_loss(log_ratio):
    """``grpo_loss`` at beta=0 of one rollout whose new-minus-old log-prob is
    ``log_ratio``. The advantage is -1 for a ratio of at least 1 and +1
    below, which keeps the unclipped branch active, so the value is the
    ratio itself, negated below 1."""
    pol = P.ReportPolicy()
    features = np.zeros(P.FEATURE_DIM)
    choices = {name: 0 for name, _ in pol.slots}
    rollout = P.Rollout(choices, "", pol.log_prob(choices, features) - log_ratio)
    rollout.advantage = -1.0 if log_ratio >= 0 else 1.0
    group = P.SampleGroup("p", features, [rollout])
    return P.grpo_loss(group, pol, pol.probs(features), 0.2, beta=0.0)


class TestImportanceRatio:
    """The ratio exp(new - old) as ``grpo_loss`` computes it."""

    def test_equal_logprobs(self):
        assert _one_rollout_loss(0.0).value == 1.0

    def test_log_ratio(self):
        assert _one_rollout_loss(math.log(1.5)).value == pytest.approx(1.5, abs=1e-9)

    def test_exponent_clamp(self):
        """Past +/-30 the exponent is clamped, so the ratio is constant there
        and its gradient is zero."""
        high, low = _one_rollout_loss(100.0), _one_rollout_loss(-100.0)
        assert high.value == pytest.approx(math.exp(30.0))
        assert low.value == pytest.approx(-math.exp(-30.0))
        assert not high.grads["flat"].any() and not low.grads["flat"].any()


def _group_with(pol, features, advantages, rho=None):
    group = P.SampleGroup("p", features)
    rng = np.random.default_rng(0)
    for i, a in enumerate(advantages):
        choices = {name: int(rng.integers(len(opts))) for name, opts in pol.slots}
        new_lp = pol.log_prob(choices, features)
        offset = 0.0 if rho is None else math.log(rho[i])
        rollout = P.Rollout(choices, "", new_lp - offset)
        rollout.advantage = float(a)
        group.rollouts.append(rollout)
    return group


class TestGrpoLoss:
    def test_zero_when_anchored_and_no_advantage(self):
        pol = P.ReportPolicy()
        features = np.zeros(P.FEATURE_DIM)
        group = _group_with(pol, features, [0.0, 0.0])
        lw = P.grpo_loss(group, pol, pol.probs(features), 0.2, 0.1)
        assert lw.value == pytest.approx(0.0, abs=1e-12)
        assert all(np.all(g == 0) for g in lw.grads.values())

    def test_balanced_advantages_at_rho_one(self):
        pol = P.ReportPolicy()
        features = np.zeros(P.FEATURE_DIM)
        group = _group_with(pol, features, [1.0, -1.0], rho=[1.0, 1.0])
        lw = P.grpo_loss(group, pol, pol.probs(features), 0.2, beta=0.0)
        assert lw.value == pytest.approx(0.0, abs=1e-12)

    def test_clip_arithmetic(self):
        pol = P.ReportPolicy()
        features = np.zeros(P.FEATURE_DIM)
        group = _group_with(pol, features, [1.0], rho=[1.5])
        lw = P.grpo_loss(group, pol, pol.probs(features), epsilon=0.2, beta=0.0)
        assert lw.value == pytest.approx(-1.2, abs=1e-9)

    def test_clip_inactivity(self):
        pol = P.ReportPolicy(seed=1)
        rng = np.random.default_rng(3)
        for view in pol.params.values():
            view[...] = rng.normal(0, 0.2, view.shape)
        features = rng.normal(size=P.FEATURE_DIM)
        rhos = [1.05, 0.9, 1.15, 0.85]
        group = _group_with(pol, features, rng.normal(size=4), rho=rhos)
        lw = P.grpo_loss(group, pol, pol.probs(features), epsilon=0.2, beta=0.0)
        unclipped = 0.0
        for rollout, rho in zip(group.rollouts, rhos):
            unclipped += -rho * rollout.advantage / len(group.rollouts)
        assert lw.value == pytest.approx(unclipped, abs=1e-12)

    def test_reward_shift_invariance_of_gradient(self):
        pol = P.ReportPolicy(seed=2)
        rng = np.random.default_rng(4)
        for view in pol.params.values():
            view[...] = rng.normal(0, 0.2, view.shape)
        features = rng.normal(size=P.FEATURE_DIM)
        rewards = np.array([0.9, 0.2, 0.4, 0.7])
        for shift in (0.0, 5.0):
            advs = P.normalize_advantages(rewards + shift)
            group = _group_with(pol, features, advs, rho=[1.0] * 4)
            lw = P.grpo_loss(group, pol, pol.probs(features), 0.2, beta=0.0)
            if shift == 0.0:
                base = {k: v.copy() for k, v in lw.grads.items()}
            else:
                for key in base:
                    np.testing.assert_allclose(lw.grads[key], base[key], atol=1e-9)

    def test_ref_probs_shape_checked_and_never_written(self):
        pol = P.ReportPolicy(seed=1)
        rng = np.random.default_rng(5)
        pol.flat[...] = rng.normal(0, 0.3, pol.flat.size)
        ref = P.ReportPolicy()
        ref.flat[...] = rng.normal(0, 0.3, ref.flat.size)
        features = rng.normal(size=P.FEATURE_DIM)
        group = _group_with(pol, features, rng.normal(size=4), rho=[1.1, 0.7, 1.3, 0.95])
        ref_probs = ref.probs(features)
        for bad in (ref_probs[:-1], ref_probs[None, :], np.zeros((P.N_SLOTS, 5))):
            with pytest.raises(DimMismatchError):
                P.grpo_loss(group, pol, bad, 0.2, 0.1)
            with pytest.raises(DimMismatchError):
                pol.mean_kl_to(bad, features)
        # a read-only table raises on any write inside the loss
        ref_probs.setflags(write=False)
        before = ref_probs.copy()
        first = P.grpo_loss(group, pol, ref_probs, 0.2, 0.1)
        second = P.grpo_loss(group, pol, ref_probs, 0.2, 0.1)
        np.testing.assert_array_equal(ref_probs, before)
        assert first.value == second.value
        np.testing.assert_array_equal(first.grads["flat"], second.grads["flat"])

    def test_empty_group_is_the_kl_term_alone(self):
        pol, ref = P.ReportPolicy(), P.ReportPolicy()
        rng = np.random.default_rng(6)
        pol.flat[...] = rng.normal(0, 0.3, pol.flat.size)
        ref.flat[...] = rng.normal(0, 0.3, ref.flat.size)
        features = rng.normal(size=P.FEATURE_DIM)
        group = P.SampleGroup("p", features)
        lw = P.grpo_loss(group, pol, ref.probs(features), 0.2, 0.1)
        value, grad, terms = _per_slot_grpo_loss(group, pol, ref, 0.2, 0.1)
        assert lw.value == 0.1 * pol.mean_kl_to(ref.probs(features), features)
        assert lw.value == pytest.approx(value, rel=1e-12)
        assert np.all(np.abs(lw.grads["flat"] - grad) <= 1e-12 * terms)
        empty = P.grpo_loss(group, pol, ref.probs(features), 0.2, beta=0.0)
        assert empty.value == 0.0
        assert not np.any(empty.grads["flat"])

    def test_gradients_pass_fd(self):
        from eviground.gradcheck import check_grpo

        assert max(check_grpo(s) for s in range(5)) < 1e-4


class TestTrainRft:
    def test_zero_update_when_equal_rewards_and_no_kl(self, patient, small_cohort):
        from eviground.rules import LexicalEntailmentScorer

        pol = P.ReportPolicy(rules=small_cohort.rules)
        scorer = LexicalEntailmentScorer(small_cohort.rules)
        group = P.sample_group(pol, patient, 4, seed=0)
        for rollout in group.rollouts:
            rollout.advantage = 0.0
        lw = P.grpo_loss(group, pol, pol.probs(group.features), 0.2, beta=0.0)
        before = pol.flat.copy()
        pol.flat -= 0.05 * lw.grads["flat"]
        np.testing.assert_array_equal(pol.flat, before)

    def test_reward_log_columns(self, small_cohort):
        from eviground.rules import LexicalEntailmentScorer

        patients = [small_cohort.records[p] for p in small_cohort.split["train"]]
        pol = P.ReportPolicy(rules=small_cohort.rules)
        scorer = LexicalEntailmentScorer(small_cohort.rules)
        _, rows = P.train_rft(
            pol, patients, small_cohort.rules, scorer, P.RftConfig(iters=5), seed=0
        )
        assert list(rows[0]) == [
            "iter",
            "mean_reward",
            "r_format",
            "r_nia",
            "r_consistency",
            "kl_ref",
        ]

    def test_large_beta_pins_policy_to_reference(self, small_cohort):
        from eviground.rules import LexicalEntailmentScorer

        patients = [small_cohort.records[p] for p in small_cohort.split["train"]]
        pol = P.ReportPolicy(rules=small_cohort.rules)
        ref = pol.copy()
        scorer = LexicalEntailmentScorer(small_cohort.rules)
        # step size scaled down so beta*lr stays in the stable regime
        trained, _ = P.train_rft(
            pol, patients, small_cohort.rules, scorer,
            P.RftConfig(iters=300, beta=100.0, lr=0.02), seed=3,
        )
        features = [P.patient_features(p) for p in patients[:10]]
        kls = [trained.mean_kl_to(ref.probs(f), f) for f in features]
        assert max(kls) <= 0.01

    def test_checkpoint_roundtrip(self, tmp_path, patient):
        pol = P.ReportPolicy(seed=4)
        rng = np.random.default_rng(0)
        for view in pol.params.values():
            view[...] = rng.normal(0, 0.2, view.shape)
        pol.save(tmp_path / "policy")
        back = P.ReportPolicy.load(tmp_path / "policy")
        a = P.sample_group(pol, patient, 4, seed=1)
        b = P.sample_group(back, patient, 4, seed=1)
        assert [r.choices for r in a.rollouts] == [r.choices for r in b.rollouts]


def _per_slot_probs(pol, name, features):
    """The per-slot softmax the flat layout replaced, on separate arrays."""
    return softmax(pol.params[f"{name}.w"].copy() @ features + pol.params[f"{name}.b"].copy())


def _per_slot_sample(pol, features, rng):
    choices, logprob = {}, 0.0
    for name, opts in pol.slots:
        p = _per_slot_probs(pol, name, features)
        idx = int(rng.choice(len(opts), p=p))
        choices[name] = idx
        logprob += float(np.log(p[idx]))
    return choices, logprob


def _per_slot_mean_kl(pol, ref, features):
    total = 0.0
    for name, _ in pol.slots:
        p = _per_slot_probs(pol, name, features)
        q = _per_slot_probs(ref, name, features)
        total += float(np.sum(p * (np.log(p) - np.log(q))))
    return total / len(pol.slots)


def _per_slot_grpo_loss(group, pol, ref, epsilon, beta):
    """Value and flat gradient of the per-slot GRPO loss, term for term, and
    per gradient entry the sum of its terms' magnitudes."""
    features = group.features
    g = len(group.rollouts)
    probs = {name: _per_slot_probs(pol, name, features) for name, _ in pol.slots}
    dlogits = {name: np.zeros_like(p) for name, p in probs.items()}
    terms = {name: np.zeros_like(p) for name, p in probs.items()}
    surrogate = 0.0
    for rollout in group.rollouts:
        new_lp = sum(float(np.log(probs[name][rollout.choices[name]])) for name, _ in pol.slots)
        delta = new_lp - rollout.old_logprob
        clamped = np.clip(delta, -P.RATIO_EXPONENT_CLAMP, P.RATIO_EXPONENT_CLAMP)
        rho = float(np.exp(clamped))
        a = rollout.advantage
        unclipped = rho * a
        clipped = float(np.clip(rho, 1.0 - epsilon, 1.0 + epsilon)) * a
        surrogate += -min(unclipped, clipped) / g
        if unclipped <= clipped:
            coeff = 0.0 if clamped != delta else -a * rho / g
        else:
            coeff = -a * rho / g if (1.0 - epsilon) <= rho <= (1.0 + epsilon) else 0.0
        if coeff != 0.0:
            for name, _ in pol.slots:
                onehot = np.zeros_like(probs[name])
                onehot[rollout.choices[name]] = 1.0
                dlogits[name] += coeff * (onehot - probs[name])
                terms[name] += abs(coeff) * (onehot + probs[name])
    kl_total = 0.0
    if beta > 0.0:
        n_slots = len(pol.slots)
        for name, _ in pol.slots:
            p = probs[name]
            q = _per_slot_probs(ref, name, features)
            lp, lq = np.log(np.maximum(p, 1e-300)), np.log(np.maximum(q, 1e-300))
            kl_slot = float(np.sum(p * (lp - lq)))
            kl_total += kl_slot
            dlogits[name] += (beta / n_slots) * p * ((lp - lq) - kl_slot)
            terms[name] += (beta / n_slots) * p * (np.abs(lp - lq) + abs(kl_slot))
        kl_total /= n_slots

    def flat(per_slot, f):
        return np.concatenate(
            [np.outer(per_slot[name], f).ravel() for name, _ in pol.slots]
            + [per_slot[name] for name, _ in pol.slots]
        )

    return surrogate + beta * kl_total, flat(dlogits, features), flat(terms, np.abs(features))


class TestFlatLayout:
    def test_views_share_flat(self):
        pol = P.ReportPolicy()
        assert pol.flat.size == (P.FEATURE_DIM + 1) * P.N_CHOICES == 731
        assert (P.N_SLOTS, P.N_CHOICES) == (11, 43)
        assert sum(view.size for view in pol.params.values()) == pol.flat.size
        for name, view in pol.params.items():
            assert np.shares_memory(view, pol.flat), name
        assert not np.shares_memory(pol.copy().flat, pol.flat)

    def test_params_in_slot_order_w_before_b(self):
        want = [f"{name}.{part}" for name, _ in P.slot_layout() for part in ("w", "b")]
        assert list(P.ReportPolicy().params) == want, (
            "gradcheck.check_grpo draws the parameters in this order, and its margin "
            "depends on it: reordering moves check_grpo toward TOLERANCE (seed 3 read "
            "1.10e-4 with every .w drawn first, before the one-product logits)"
        )

    def test_params_read_only(self):
        pol = P.ReportPolicy()
        with pytest.raises(TypeError):
            pol.params["diagnosis.b"] = np.ones(3)

    def test_close_to_per_slot_reference(self):
        """The one-product logits and the batched loss round differently from
        the per-slot reference, so only the sampled choices must match exactly;
        each gradient entry must agree to 1e-12 of the magnitude of the terms
        it sums, since saturated slots cancel terms far larger than the entry."""
        for i in range(50):
            rng = np.random.default_rng(i)
            scale = float(np.exp(rng.uniform(np.log(0.01), np.log(30.0))))
            pol, ref = P.ReportPolicy(), P.ReportPolicy()
            for q in (pol, ref):
                q.flat[...] = rng.normal(0, scale, q.flat.size)
            features = rng.normal(size=P.FEATURE_DIM)

            draw_rng = np.random.default_rng(100 + i)
            expected = [_per_slot_sample(pol, features, draw_rng) for _ in range(4)]
            got = pol.sample(features, np.random.default_rng(100 + i), 4)
            assert [c for c, _ in got] == [c for c, _ in expected]
            np.testing.assert_allclose([lp for _, lp in got], [lp for _, lp in expected], rtol=1e-12)

            group = P.SampleGroup("p", features)
            for choices, logprob in got:
                # log-ratio scales 0.3, 3 and 30 reach the clip band and the clamp
                offset = rng.normal(0, 0.3 * 10.0 ** rng.integers(0, 3))
                rollout = P.Rollout(choices, "", logprob - offset)
                rollout.advantage = float(rng.normal())
                group.rollouts.append(rollout)
            beta = (0.0, 0.1, 1.0)[i % 3]
            value, grad, terms = _per_slot_grpo_loss(group, pol, ref, 0.2, beta)
            lw = P.grpo_loss(group, pol, ref.probs(features), 0.2, beta)
            assert lw.value == pytest.approx(value, rel=1e-12)
            assert np.all(np.abs(lw.grads["flat"] - grad) <= 1e-12 * terms)
            kl = pol.mean_kl_to(ref.probs(features), features)
            assert kl == pytest.approx(_per_slot_mean_kl(pol, ref, features), rel=1e-12)

    def test_probs_bitwise_equal_to_one_product(self):
        for i in range(50):
            rng = np.random.default_rng(i)
            scale = float(np.exp(rng.uniform(np.log(0.01), np.log(30.0))))
            pol = P.ReportPolicy()
            pol.flat[...] = rng.normal(0, scale, pol.flat.size)
            features = rng.normal(size=P.FEATURE_DIM)
            w = pol.flat[: P.N_CHOICES * P.FEATURE_DIM].reshape(P.N_CHOICES, P.FEATURE_DIM)
            logits = w @ features + pol.flat[w.size :]
            expected = []
            for start, size in zip(P._SLOT_START, P._SLOT_SIZES):
                e = np.exp(logits[start : start + size] - logits[start : start + size].max())
                expected.append(e / e.sum())
            np.testing.assert_array_equal(pol.probs(features), np.concatenate(expected))

    def test_sampling_policy_scores_its_rollouts_at_ratio_one(self):
        for i in range(20):
            rng = np.random.default_rng(i)
            pol = P.ReportPolicy()
            pol.flat[...] = rng.normal(0, 3.0, pol.flat.size)
            features = rng.normal(size=P.FEATURE_DIM)
            group = P.SampleGroup("p", features)
            for choices, logprob in pol.sample(features, rng, 4):
                rollout = P.Rollout(choices, "", logprob)
                rollout.advantage = 1.0
                group.rollouts.append(rollout)
            # rho == 1 exactly: each rollout adds -1/4 to the surrogate
            assert P.grpo_loss(group, pol, pol.probs(features), 0.2, beta=0.0).value == -1.0

    def test_mean_kl_finite_for_saturated_policy(self):
        pol = P.ReportPolicy()
        pol.params["diagnosis.b"][0] = 1000.0  # exp(-1000) underflows to 0
        features = np.zeros(P.FEATURE_DIM)
        assert np.count_nonzero(pol.probs(features) == 0.0) == 2
        kl = pol.mean_kl_to(P.ReportPolicy().probs(features), features)
        assert kl == pytest.approx(math.log(3.0) / P.N_SLOTS, rel=1e-12)

    def test_non_finite_probabilities_rejected(self):
        pol = P.ReportPolicy()
        pol.params["order.b"][0] = np.inf
        with pytest.raises(ValidationError), np.errstate(invalid="ignore"):
            pol.sample(np.zeros(P.FEATURE_DIM), np.random.default_rng(0), 4)

    def test_check_grpo_evaluates_loss_once_plus_twice_per_entry(self, monkeypatch):
        from eviground.gradcheck import check_grpo

        calls = []
        trained = []
        probs_of = []
        loss = P.grpo_loss
        probs = P.ReportPolicy.probs

        def counted(group, policy, *args, **kwargs):
            calls.append(1)
            trained.append(policy)
            return loss(group, policy, *args, **kwargs)

        def counted_probs(self, features):
            probs_of.append(self)
            return probs(self, features)

        monkeypatch.setattr(P, "grpo_loss", counted)
        monkeypatch.setattr(P.ReportPolicy, "probs", counted_probs)
        for seed in (0, 1):
            calls.clear()
            trained.clear()
            probs_of.clear()
            check_grpo(seed)
            assert len(calls) == 1 + 2 * P.ReportPolicy().flat.size
            # the frozen reference's probabilities are computed once per seed
            assert len({id(p) for p in trained}) == 1
            assert sum(p is not trained[0] for p in probs_of) == 1


class TestFormatRewardTargetedRun:
    def test_format_validity_rate_strictly_increases(self, small_cohort):
        """A policy seeded to emit malformed confidence half the time must
        climb in format validity under training."""
        import math

        from eviground.rules import LexicalEntailmentScorer
        from eviground.report import parse_report, format_reward

        pol = P.ReportPolicy(rules=small_cohort.rules)
        # confidence options: High/Medium/Low valid, Certain/omit malformed;
        # biases chosen so P(malformed) = 0.5 exactly
        pol.params["confidence.b"][:] = [
            math.log(1 / 6), math.log(1 / 6), math.log(1 / 6),
            math.log(1 / 4), math.log(1 / 4),
        ]
        patients = [small_cohort.records[p] for p in small_cohort.split["train"]]
        scorer = LexicalEntailmentScorer(small_cohort.rules)

        def fmt_rate(policy, seed):
            rng = np.random.default_rng(seed)
            vals = []
            for record in patients:
                group = P.sample_group(policy, record, 4, rng.integers(2**63))
                vals.extend(
                    format_reward(parse_report(r.text)) for r in group.rollouts
                )
            return float(np.mean(vals))

        before = fmt_rate(pol, seed=5)
        trained, _ = P.train_rft(
            pol.copy(), patients, small_cohort.rules, scorer, P.RftConfig(iters=250), seed=6
        )
        after = fmt_rate(trained, seed=5)
        assert abs(before - 0.5) < 0.15  # binomial noise over 64 rollouts
        assert after > before

"""Acceptance gate: every criterion at its stated tolerance.

Each test prints one `[acceptance] criterion N: PASS` line on success
(run with `pytest -s tests/test_acceptance.py` to see them stream).
"""

import math
import time

import numpy as np
import pytest

from eviground import gradcheck, metrics
from eviground import policy as P
from eviground.distill import DistillConfig, label_efficiency_experiment
from eviground.grounding import GrounderConfig
from eviground.losses import kl_divergence
from eviground.report import parse_report, render_report
from eviground.rules import LexicalEntailmentScorer, total_reward

pytestmark = pytest.mark.filterwarnings("ignore::DeprecationWarning")


def _announce(n, name):
    print(f"\n[acceptance] criterion {n} ({name}): PASS")


# --- criterion 1: gradient suite ---------------------------------------------


def test_criterion_1_gradient_suite():
    start = time.time()
    results = gradcheck.run_all(n_seeds=50)
    elapsed = time.time() - start
    for name, err in results.items():
        assert err < 1e-4, f"{name} gradient check failed: {err:.3e}"
    assert set(results) == {
        "multi_positive_infonce",
        "dice_bce_loss",
        "distill_loss",
        "itc_loss",
        "token_nll",
        "mse_loss",
        "grpo_loss",
    }
    assert elapsed < 120.0, f"gradient suite took {elapsed:.0f}s"
    _announce(1, "gradient suite")


# --- criterion 2: oracle equivalence ------------------------------------------


def test_criterion_2_oracle_equivalence():
    from tests.test_grounding import _random_batch, brute_force_loss
    from tests.test_metrics import brute_force_ap
    from eviground.grounding import multi_positive_infonce
    from eviground.textenc import Embedder

    start = time.time()
    rng = np.random.default_rng(42)

    emb = Embedder(vocab_hash_dim=32, base_dim=8, embed_dim=6, seed=1)
    for _ in range(100):
        batch = _random_batch(rng, int(rng.integers(2, 5)), int(rng.integers(2, 6)))
        got = multi_positive_infonce(batch, emb, tau=0.5).value
        assert abs(got - brute_force_loss(batch, emb, 0.5)) <= 1e-10

    for _ in range(100):
        q = rng.dirichlet(np.ones(6))
        p = rng.dirichlet(np.ones(6))
        brute = sum(
            qi * (math.log(max(qi, 1e-9)) - math.log(max(pi, 1e-9)))
            for qi, pi in zip(q, p)
            if qi > 0
        )
        assert abs(kl_divergence(q, p) - brute) <= 1e-10

    for _ in range(100):
        n_queries = int(rng.integers(1, 5))
        rankings, golds = [], []
        for _ in range(n_queries):
            n = int(rng.integers(2, 10))
            items = [f"i{j}" for j in range(n)]
            rng.shuffle(items)
            rankings.append(items)
            golds.append(set(rng.choice(items, size=int(rng.integers(1, n)), replace=False)))
        for ranked, gold in zip(rankings, golds):
            assert abs(metrics.average_precision(ranked, gold) - brute_force_ap(ranked, gold)) <= 1e-10
        brute_map = sum(brute_force_ap(r, g) for r, g in zip(rankings, golds)) / n_queries
        assert abs(metrics.mean_average_precision(rankings, golds) - brute_map) <= 1e-10

    elapsed = time.time() - start
    assert elapsed < 60.0, f"oracle suite took {elapsed:.0f}s"
    _announce(2, "oracle equivalence")


# --- criterion 3: GRPO invariants ----------------------------------------------


def test_criterion_3_grpo_invariants():
    rng = np.random.default_rng(7)

    cfg = P.RftConfig()
    assert (cfg.group_size, cfg.epsilon, cfg.beta) == (4, 0.2, 0.1)

    for _ in range(200):
        rewards = rng.random(4)
        advs = P.normalize_advantages(rewards)
        assert abs(advs.mean()) <= 1e-9
        if np.ptp(rewards) > 0:
            assert abs(advs.std() - 1.0) <= 1e-6

    assert np.all(P.normalize_advantages(np.full(4, 0.7)) == 0.0)

    pol = P.ReportPolicy()
    for view in pol.params.values():
        view[...] = rng.normal(0, 0.2, view.shape)
    features = rng.normal(size=P.FEATURE_DIM)

    def make_group(advantages, rhos):
        group = P.SampleGroup("p", features)
        for a, rho in zip(advantages, rhos):
            choices = {name: int(rng.integers(len(opts))) for name, opts in pol.slots}
            rollout = P.Rollout(choices, "", pol.log_prob(choices, features) - math.log(rho))
            rollout.advantage = float(a)
            group.rollouts.append(rollout)
        return group

    # equal rewards -> zero advantages -> zero update at beta=0
    group = make_group(P.normalize_advantages(np.full(4, 0.5)), [1.0] * 4)
    lw = P.grpo_loss(group, pol, pol.probs(features), 0.2, beta=0.0)
    assert all(np.all(g == 0.0) for g in lw.grads.values())

    # clip inactivity: all rho within [1-eps, 1+eps]
    rhos = [1.1, 0.93, 1.19, 0.81]
    advs = rng.normal(size=4)
    group = make_group(advs, rhos)
    lw = P.grpo_loss(group, pol, pol.probs(features), 0.2, beta=0.0)
    unclipped = 0.0
    for rollout, rho in zip(group.rollouts, rhos):
        unclipped += -rho * rollout.advantage / 4
    assert abs(lw.value - unclipped) <= 1e-12

    # reward-shift invariance of the beta=0 gradient: same rollouts, the
    # advantages recomputed from shifted rewards
    rewards = rng.random(4)
    group = make_group(P.normalize_advantages(rewards), [1.0] * 4)
    base = P.grpo_loss(group, pol, pol.probs(features), 0.2, beta=0.0).grads
    shifted_advs = P.normalize_advantages(rewards + 3.0)
    for rollout, adv in zip(group.rollouts, shifted_advs):
        rollout.advantage = float(adv)
    shifted = P.grpo_loss(group, pol, pol.probs(features), 0.2, beta=0.0).grads
    for key in base:
        assert np.max(np.abs(shifted[key] - base[key])) <= 1e-9
    _announce(3, "GRPO invariants")


# --- criterion 4: reward determinism and bounds ----------------------------------


def _fuzz_corpus(cohort, n_total=200):
    """Deterministic mix of valid, malformed, and adversarial reports."""
    rng = np.random.default_rng(99)
    ids = sorted(cohort.records)
    reports = []

    for pid in ids[:40]:
        reports.append((pid, cohort.gold_report(pid)))

    policy = P.ReportPolicy(rules=cohort.rules)
    for i in range(40):
        pid = ids[i % len(ids)]
        group = P.sample_group(policy, cohort.records[pid], 2, seed=1000 + i)
        reports.append((pid, group.rollouts[0].text))

    mutators = [
        lambda t: t.replace("[Confidence]", "[Certainty]"),
        lambda t: t.replace("[Diagnosis]\n", "[Diagnosis]\nPossible "),
        lambda t: t.upper(),
        lambda t: t.lower(),
        lambda t: t + "\n[Diagnosis]\nCN\n",
        lambda t: t.split("[Diagnosis]")[0],
        lambda t: "preamble junk\n" + t,
        lambda t: t.replace("\n", " "),
        lambda t: "",
        lambda t: "dementia " * 50,
        lambda t: "[Reasoning]\n\x00\x7f  odd unicode \n[Diagnosis]\nMCI\n[Confidence]\nLow\n",
        lambda t: t.replace("[Reasoning]", "[Reasoning]\nfindings indicate dementia."),
    ]
    i = 0
    while len(reports) < n_total - 1:
        pid = ids[int(rng.integers(len(ids)))]
        base = cohort.gold_report(pid)
        reports.append((pid, mutators[i % len(mutators)](base)))
        i += 1

    named_failure = render_report(
        "CSF biomarker panel shows normal values. All biomarkers are normal.",
        "Dementia",
        "High",
    )
    reports.append((ids[0], named_failure))
    return reports, named_failure


def test_criterion_4_reward_determinism_and_bounds(default_cohort):
    scorer = LexicalEntailmentScorer(default_cohort.rules)
    cfg = default_cohort.rules
    corpus, named_failure = _fuzz_corpus(default_cohort)
    assert len(corpus) == 200

    for pid, text in corpus:
        record = default_cohort.records[pid]
        rb1 = total_reward(parse_report(text), record, cfg, scorer)
        rb2 = total_reward(parse_report(text), record, cfg, scorer)
        assert rb1 == rb2  # bitwise determinism via float equality
        for field in ("r_format", "r_cat", "r_bio", "r_feat", "r_nia", "r_consistency"):
            value = getattr(rb1, field)
            assert 0.0 <= value <= 1.0, f"{field}={value} outside [0,1]"
        assert abs(rb1.r_nia - (0.4 * rb1.r_cat + 0.3 * rb1.r_bio + 0.3 * rb1.r_feat)) <= 1e-12
        want_total = (
            cfg.w_format * rb1.r_format
            + cfg.w_nia * rb1.r_nia
            + cfg.w_consistency * rb1.r_consistency
        )
        assert abs(rb1.total - want_total) <= 1e-12
        assert 0.0 <= rb1.total <= cfg.max_total() + 1e-12

    rb = total_reward(
        parse_report(named_failure), default_cohort.records[sorted(default_cohort.records)[0]], cfg, scorer
    )
    assert rb.r_consistency == 0.0
    _announce(4, "reward determinism and bounds")


# --- criterion 5: RFT improvement --------------------------------------------------


@pytest.fixture(scope="module")
def rft_run(default_cohort):
    scorer = LexicalEntailmentScorer(default_cohort.rules)
    train = [default_cohort.records[p] for p in default_cohort.split["train"]]
    degraded = P.ReportPolicy(rules=default_cohort.rules)  # uniform everywhere
    start = time.time()
    trained, rows = P.train_rft(
        degraded.copy(), train, default_cohort.rules, scorer, P.RftConfig(iters=500), seed=0
    )
    elapsed = time.time() - start
    return degraded, trained, rows, elapsed


def _consistency_table(cohort, policy, seed):
    scorer = LexicalEntailmentScorer(cohort.rules)
    rng = np.random.default_rng(seed)
    pairs = []
    for pid in cohort.split["test"]:
        record = cohort.records[pid]
        group = P.sample_group(policy, record, 4, rng.integers(2**63))
        pairs.extend((record, r.text) for r in group.rollouts)
    return metrics.eval_consistency(pairs, cohort.rules, scorer)


def test_criterion_5_rft_improvement(default_cohort, rft_run):
    degraded, trained, rows, elapsed = rft_run
    scorer = LexicalEntailmentScorer(default_cohort.rules)
    test_split = [default_cohort.records[p] for p in default_cohort.split["test"]]

    gold_max = default_cohort.rules.max_total()
    mean_reward = P.evaluate_policy_reward(
        trained, test_split, default_cohort.rules, scorer, group_size=4, seed=314
    )
    assert mean_reward >= 0.9 * gold_max, f"mean reward {mean_reward:.3f} < 0.9*max"

    before = _consistency_table(default_cohort, degraded, seed=17)
    after = _consistency_table(default_cohort, trained, seed=17)
    for column in ("accuracy", "valid_format_rate", "nia_consistency_rate", "entailment_rate"):
        assert after[column] > before[column], (
            f"{column} did not improve: {before[column]:.3f} -> {after[column]:.3f}"
        )
    assert elapsed < 600.0, f"RFT run took {elapsed:.0f}s"
    _announce(5, "RFT improvement")


# --- criterion 6: grounding quality ---------------------------------------------------


def test_criterion_6_grounding_quality(default_cohort, trained_sea):
    emb, dec, elapsed = trained_sea
    table = metrics.eval_grounding(emb, dec, default_cohort, "test")
    assert table["r_at_3"] >= 0.9, f"R@3 {table['r_at_3']:.3f}"
    assert table["map"] >= 0.8, f"MAP {table['map']:.3f}"
    for structure in ("left_hippocampus", "right_hippocampus", "overall"):
        conditioned = table[f"dice.{structure}"]
        ablated = table[f"dice_ablated.{structure}"]
        assert conditioned > ablated, (
            f"{structure}: conditioned {conditioned:.3f} <= ablated {ablated:.3f}"
        )
    assert elapsed < 900.0, f"grounding training took {elapsed:.0f}s"
    _announce(6, "grounding quality")


# --- criterion 7: label efficiency ------------------------------------------------------


def test_criterion_7_label_efficiency(default_cohort):
    start = time.time()
    rows = label_efficiency_experiment(
        default_cohort,
        [0.25, 1.0],
        DistillConfig(),
        GrounderConfig(train_decoder=False),
        seed=0,
    )
    elapsed = time.time() - start
    by_fraction = {row["fraction"]: row for row in rows}
    assert by_fraction[0.25]["ratio"] >= 0.95, f"ratio@0.25 {by_fraction[0.25]['ratio']:.3f}"
    assert by_fraction[1.0]["ratio"] >= 0.98, f"ratio@1.0 {by_fraction[1.0]['ratio']:.3f}"
    for row in rows:
        assert 0.0 <= row["ratio"] <= 1.05
    assert elapsed < 1200.0, f"label-efficiency took {elapsed:.0f}s"
    _announce(7, "label efficiency")


# --- criterion 8: round-trip and determinism ----------------------------------------------


def test_criterion_8_roundtrip_and_determinism(default_cohort, tmp_path):
    from eviground.cohort import CohortConfig, generate_cohort
    from eviground.cohort import render_gold_report

    # parse . render identity on every gold report
    for pid, record in default_cohort.records.items():
        parsed = parse_report(default_cohort.gold_report(pid))
        assert parsed.parse_diagnostics == []
        assert parsed.diagnosis == record.gt_label
        text, _ = render_gold_report(record, default_cohort.rules)
        reparsed = parse_report(text)
        assert reparsed.reasoning_sentences == parsed.reasoning_sentences
        assert reparsed.diagnosis == parsed.diagnosis
        assert reparsed.confidence == parsed.confidence

    # fixed seed reproduces identical manifest hashes
    m1 = generate_cohort(CohortConfig(n_patients=12), tmp_path / "a", seed=123)
    m2 = generate_cohort(CohortConfig(n_patients=12), tmp_path / "b", seed=123)
    assert m1["files"] == m2["files"]

    # split ratios exactly 70/10/20 by subject
    split = default_cohort.split
    assert len(split["train"]) == 70
    assert len(split["val"]) == 10
    assert len(split["test"]) == 20
    train, val, test = (set(split[k]) for k in ("train", "val", "test"))
    assert not (train & val) and not (train & test) and not (val & test)
    assert train | val | test == set(default_cohort.records)
    _announce(8, "round-trip and determinism")

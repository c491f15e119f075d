"""Distillation loss, stage ordering, and teacher-freeze contracts."""

import dataclasses
import math

import numpy as np
import pytest

from eviground import distill
from eviground.errors import (
    EmptyDatasetError,
    InsufficientLabelsError,
    UntrainedTeacherError,
)
from eviground.grounding import GrounderConfig, train_grounding
from eviground.losses import softmax
from eviground.textenc import Embedder, FrozenTexts


class TestDistillLoss:
    def test_matching_distributions_zero(self):
        logits = np.array([0.5, -0.2, 1.0])
        q = softmax(logits, temperature=2.0)
        assert distill.distill_loss(q, logits, 2.0).value == pytest.approx(0.0, abs=1e-12)

    def test_hard_teacher_uniform_student(self):
        got = distill.distill_loss(np.array([1.0, 0.0]), np.zeros(2), 1.0).value
        assert got == pytest.approx(math.log(2), abs=1e-6)

    def test_temperature_squared_scaling(self):
        rng = np.random.default_rng(0)
        z = rng.normal(size=5)
        q = softmax(rng.normal(size=5), temperature=2.0)
        from eviground.losses import kl_divergence

        want = 4.0 * kl_divergence(q, softmax(z, temperature=2.0))
        assert distill.distill_loss(q, z, 2.0).value == pytest.approx(want, abs=1e-12)

    def test_gradient_only_touches_student(self):
        lw = distill.distill_loss(np.array([0.6, 0.4]), np.array([0.1, -0.1]), 2.0)
        assert set(lw.grads) == {"student_logits"}

    def test_gradient_fd(self):
        from eviground.gradcheck import check_distill

        assert max(check_distill(s) for s in range(10)) < 1e-4

    def test_batch_gradient_fd(self):
        from eviground.gradcheck import TOLERANCE
        from eviground.losses import finite_difference_check

        rng = np.random.default_rng(7)
        q = softmax(rng.normal(size=(3, 5)), temperature=2.0)
        z = rng.normal(size=(3, 5))
        lw = distill.distill_loss(q, z, 2.0)
        err = finite_difference_check(
            lambda x: distill.distill_loss(q, x, 2.0).value, z.copy(), lw.grads["student_logits"]
        )
        assert err < TOLERANCE

    def test_single_row_batch_equals_1d_call(self):
        rng = np.random.default_rng(3)
        q = softmax(rng.normal(size=6), temperature=2.0)
        z = rng.normal(size=6)
        one = distill.distill_loss(q, z, 2.0)
        row = distill.distill_loss(q[None, :], z[None, :], 2.0)
        assert row.value == one.value
        assert np.array_equal(row.grads["student_logits"], one.grads["student_logits"][None, :])

    def test_batch_is_mean_of_rows(self):
        rng = np.random.default_rng(5)
        q = softmax(rng.normal(size=(4, 7)), temperature=2.0)
        z = rng.normal(size=(4, 7))
        batch = distill.distill_loss(q, z, 2.0)
        rows = [distill.distill_loss(q[i], z[i], 2.0) for i in range(4)]
        np.testing.assert_allclose(batch.value, np.mean([r.value for r in rows]), rtol=1e-12)
        np.testing.assert_allclose(
            batch.grads["student_logits"],
            np.stack([r.grads["student_logits"] for r in rows]) / 4,
            rtol=1e-12,
        )

    def test_defaults_match_experimental_setup(self):
        cfg = distill.DistillConfig()
        assert cfg.distill_temperature == 2.0

    def test_zero_lr_constructs(self):
        # lr = 0 keeps the student at its initial weights (see TestTrainStudent)
        assert distill.DistillConfig(lr=0.0).lr == 0.0


def _student_instance(seed):
    """A small student, one report's features and tempered teacher rows."""
    rng = np.random.default_rng(seed)
    student = Embedder(vocab_hash_dim=16, base_dim=8, embed_dim=4, seed=seed)
    feat_s = rng.normal(size=(3, 8))
    feat_e = rng.normal(size=(4, 8))
    q = softmax(rng.normal(size=(3, 4)), temperature=2.0)
    return student, feat_s, feat_e, q


class TestStudentLoss:
    def test_gradient_fd_over_student_flat(self):
        """The chain distill_loss -> logits -> two encodes, checked over
        every entry of ``student.flat`` at 50 seeds."""
        from eviground.gradcheck import TOLERANCE
        from eviground.losses import finite_difference_check

        worst = 0.0
        for seed in range(50):
            student, feat_s, feat_e, q = _student_instance(seed)
            lw = distill.student_loss(student, feat_s, feat_e, q, 0.07, 2.0)
            err = finite_difference_check(
                lambda _: distill.student_loss(student, feat_s, feat_e, q, 0.07, 2.0).value,
                student.flat,
                lw.grads["flat"],
            )
            worst = max(worst, err)
        assert worst < TOLERANCE

    def test_value_is_distill_loss_of_the_logits(self):
        student, feat_s, feat_e, q = _student_instance(0)
        v_s = np.stack([student.encode_features(f[None])[0][0] for f in feat_s])
        v_e = np.stack([student.encode_features(f[None])[0][0] for f in feat_e])
        want = distill.distill_loss(q, v_s @ v_e.T / 0.07, 2.0).value
        got = distill.student_loss(student, feat_s, feat_e, q, 0.07, 2.0).value
        assert got == pytest.approx(want, rel=1e-12)


@pytest.fixture(scope="module")
def teacher(small_cohort):
    emb, _, _ = train_grounding(
        small_cohort, GrounderConfig(epochs=8, train_decoder=False), seed=0
    )
    return distill.TeacherGrounder(emb, tau=0.07, trained=True)


@pytest.fixture(scope="module")
def train_reports(small_cohort):
    return distill.generated_reports_for(small_cohort, small_cohort.split["train"])


class TestTrainStudent:
    def test_untrained_teacher_rejected(self, small_cohort, train_reports):
        bad = distill.TeacherGrounder(Embedder(seed=0), trained=False)
        with pytest.raises(UntrainedTeacherError):
            distill.train_student(train_reports, bad, distill.DistillConfig(), seed=0)

    def test_empty_reports_rejected(self, teacher):
        with pytest.raises(EmptyDatasetError):
            distill.train_student([], teacher, distill.DistillConfig(), seed=0)

    def test_student_at_teacher_weights_starts_at_zero_loss(
        self, small_cohort, teacher, train_reports
    ):
        tau_d = distill.DistillConfig().distill_temperature
        at_teacher = distill._held_out(teacher, FrozenTexts(teacher.embedder), small_cohort, tau_d)
        assert at_teacher[2] == 0.0
        # the student starts at its own seeded weights, not at the teacher's
        cfg = distill.DistillConfig(epochs=1, lr=0.0)
        start, _ = distill.train_student(train_reports, teacher, cfg, seed=0)
        assert distill._held_out(teacher, FrozenTexts(start), small_cohort, tau_d)[2] > 0.0

    def test_loss_strictly_decreases_over_first_epochs_smoothed(self, teacher, train_reports):
        cfg = distill.DistillConfig(epochs=12, lr=0.5)
        _, rows = distill.train_student(train_reports, teacher, cfg, seed=1)
        curve = [row["loss"] for row in rows]
        smoothed = np.convolve(curve, np.ones(3) / 3, mode="valid")[:10]
        for a, b in zip(smoothed, smoothed[1:]):
            assert b < a

    def test_one_step_per_report_with_sentences(self, teacher, train_reports, monkeypatch):
        silent = dataclasses.replace(train_reports[0][1], reasoning="", reasoning_sentences=[])
        reports = [(train_reports[0][0], silent)] + train_reports[1:]
        rows = []
        distill_loss = distill.distill_loss

        def counting(teacher_p, student_logits, tau_d):
            rows.append(len(teacher_p))
            return distill_loss(teacher_p, student_logits, tau_d)

        monkeypatch.setattr(distill, "distill_loss", counting)
        cfg = distill.DistillConfig(epochs=3)
        distill.train_student(reports, teacher, cfg, seed=0)
        sizes = [len(p.reasoning_sentences) for _, p in train_reports[1:] if p.reasoning_sentences]
        assert len(rows) == cfg.epochs * len(sizes)
        assert sorted(rows) == sorted(sizes * cfg.epochs)
        with pytest.raises(EmptyDatasetError):
            distill.train_student(reports[:1], teacher, cfg, seed=0)

    def test_applies_the_student_loss_gradient(self, teacher, train_reports, monkeypatch):
        """Each SGD step subtracts lr times ``student_loss``'s own gradient,
        the function the finite-difference test checks."""
        steps = []
        student_loss = distill.student_loss

        def recording(student, *args):
            loss = student_loss(student, *args)
            steps.append((student, student.flat.copy(), loss.grads["flat"]))
            return loss

        monkeypatch.setattr(distill, "student_loss", recording)
        cfg = distill.DistillConfig(epochs=2, lr=0.5)
        student, _ = distill.train_student(train_reports, teacher, cfg, seed=0)
        assert len(steps) > 1 and all(s is student for s, _, _ in steps)
        after = [flat for _, flat, _ in steps[1:]] + [student.flat]
        for (_, before, grad), got in zip(steps, after):
            assert np.array_equal(got, before - cfg.lr * grad)

    def test_teacher_bitwise_frozen(self, teacher, train_reports):
        before = teacher.embedder.flat.copy()
        distill.train_student(
            train_reports, teacher, distill.DistillConfig(epochs=2, lr=0.5), seed=0
        )
        assert np.array_equal(before, teacher.embedder.flat)


class TestLabelEfficiency:
    def test_insufficient_labels(self, small_cohort):
        with pytest.raises(InsufficientLabelsError):
            distill.label_efficiency_experiment(small_cohort, [0.1], seed=0)

    def test_ratio_band(self, small_cohort):
        cfg = distill.DistillConfig(epochs=8)
        gcfg = GrounderConfig(epochs=8, train_decoder=False)
        rows = distill.label_efficiency_experiment(small_cohort, [1.0], cfg, gcfg, seed=0)
        assert 0.0 <= rows[0]["ratio"] <= 1.05


    def test_student_kl_is_zero_only_at_teacher_weights(self, small_cohort, teacher):
        tau_d = 2.0
        same = distill._held_out(teacher, FrozenTexts(teacher.embedder), small_cohort, tau_d)
        emb = teacher.embedder
        nudged = Embedder(emb.vocab_hash_dim, emb.base_dim, emb.embed_dim, emb.seed)
        nudged.flat[...] = emb.flat
        nudged.flat += 1e-3 * np.random.default_rng(0).normal(size=nudged.flat.shape)
        moved = distill._held_out(teacher, FrozenTexts(nudged), small_cohort, tau_d)
        gcfg = GrounderConfig(epochs=2, train_decoder=False)
        fresh = distill.DistillConfig(epochs=1)
        (other,) = distill.label_efficiency_experiment(small_cohort, [1.0], fresh, gcfg, seed=0)
        assert same[2] == 0.0 and same[0] == same[1]
        assert moved[2] > 0.0
        assert other["student_kl"] > 0.0

    def test_held_out_matches_per_sentence_recomputation(self, small_cohort, teacher):
        """Per-patient products give each test sentence's own R@3 and KL."""
        from eviground.grounding import grounding_logits
        from eviground.losses import kl_divergence
        from eviground.metrics import evidence_ranking, recall_at_k
        from eviground.textenc import FrozenTexts

        student = FrozenTexts(Embedder(seed=3))
        tau_d = 2.0
        r3_t, r3_s, kl = [], [], []
        for row in small_cohort.rows_for("test"):
            evidence = small_cohort.records[row.patient_id].evidence
            gold = set(row.evidence_ids)
            z_t = grounding_logits([row.sentence], evidence, teacher.texts, teacher.tau)[0]
            z_s = grounding_logits([row.sentence], evidence, student, teacher.tau)[0]
            r3_t.append(recall_at_k(evidence_ranking(z_t, evidence), gold, 3))
            r3_s.append(recall_at_k(evidence_ranking(z_s, evidence), gold, 3))
            q = softmax(z_t, temperature=tau_d)
            kl.append(tau_d * tau_d * kl_divergence(q, softmax(z_s, temperature=tau_d)))
        got = distill._held_out(teacher, student, small_cohort, tau_d)
        assert got[:2] == (float(np.mean(r3_t)), float(np.mean(r3_s)))
        assert got[2] == pytest.approx(float(np.mean(kl)), rel=1e-12, abs=0)

    def test_embeds_each_text_once_per_embedder(self, small_cohort, monkeypatch):
        seen, owners = [], []
        embed_text = Embedder.embed_text

        def counting(self, text):
            owners.append(self)  # keeps id(self) unique while counting
            seen.append((id(self), text))
            return embed_text(self, text)

        monkeypatch.setattr(Embedder, "embed_text", counting)
        distill.label_efficiency_experiment(
            small_cohort,
            [1.0],
            distill.DistillConfig(epochs=1),
            GrounderConfig(epochs=1, train_decoder=False),
            seed=0,
        )
        assert seen and len(seen) == len(set(seen))

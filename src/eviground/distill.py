"""Grounding transfer by temperature-scaled KL distillation.

A frozen teacher grounder produces soft evidence distributions for the
sentences of generated reports; a student embedder is trained to match
them, one SGD step per generated report on the mean loss over its
sentences. Teacher outputs are computed once and cached, so they are
bitwise identical across epochs, and no gradient ever touches teacher
parameters. The teacher's targets come from one embedding per distinct
text (its :class:`~eviground.textenc.FrozenTexts` memo), which the held-out
recall and KL of the teacher reuse. Each report's targets, and each test
patient's held-out logits, are one product of its sentences against its
evidence set.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import (
    EmptyDatasetError,
    InsufficientLabelsError,
    UntrainedTeacherError,
    ValidationError,
)
from .grounding import GrounderConfig, grounding_logits, train_grounding
from .losses import PROB_FLOOR, LossWithGrad, kl_divergence, softmax
from .metrics import evidence_ranking, recall_at_k
from .records import PatientRecord
from .report import ClinicalReport
from .textenc import Embedder, FrozenTexts


@dataclass
class TeacherGrounder:
    """Frozen embedder from supervised grounding; ``texts`` embeds each
    distinct text once."""

    embedder: Embedder
    tau: float = 0.07
    trained: bool = False
    texts: FrozenTexts = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        self.texts = FrozenTexts(self.embedder)


@dataclass
class DistillConfig:
    distill_temperature: float = 2.0
    epochs: int = 20
    lr: float = 0.5

    def __post_init__(self):
        if self.distill_temperature <= 0:
            raise ValidationError("distill_temperature must be positive")
        if self.epochs < 1 or self.lr < 0:
            raise ValidationError("epochs >= 1 and lr >= 0 required")


def distill_loss(teacher_p: np.ndarray, student_logits: np.ndarray, tau_d: float) -> LossWithGrad:
    """Mean over rows of tau_d^2 * KL(teacher || softmax(student_logits / tau_d)).

    Inputs are one (E,) row or an (n, E) batch of rows; the gradient, with
    respect to the student logits only, is per row and divided by n. A 1-D
    call divides by n = 1, which is exact.
    """
    q = np.array(teacher_p, dtype=np.float64)  # a copy, read by the backward
    z = np.asarray(student_logits, dtype=np.float64)
    if q.shape != z.shape:
        raise ValidationError(f"length mismatch: {q.shape} vs {z.shape}")
    if q.ndim not in (1, 2) or q.size == 0:
        raise ValidationError(f"expected a non-empty (E,) or (n, E) batch, got {q.shape}")
    n = q.shape[0] if q.ndim == 2 else 1
    p = softmax(z, temperature=tau_d)
    value = tau_d * tau_d * kl_divergence(q, p) / n

    def backward():
        # only terms with q_i > 0 and p_i above the floor contribute to the value
        active = (q > 0) & (p > PROB_FLOOR)
        q_active = np.where(active, q, 0.0)
        grad = tau_d * (p * q_active.sum(axis=-1, keepdims=True) - q_active) / n
        return {"student_logits": grad}

    return LossWithGrad(value, backward)


def student_loss(student: Embedder, feat_s, feat_e, q, tau, tau_d) -> LossWithGrad:
    """The student's objective on one report: ``distill_loss`` of its logits
    ``v_s @ v_e.T / tau`` against the teacher rows ``q``, with ``grads["flat"]``
    laid out like ``student.flat``. The sentence and evidence features are
    copied, because the encode caches keep them for the backward."""
    v_s, cache_s = student.encode_features(np.array(feat_s))
    v_e, cache_e = student.encode_features(np.array(feat_e))
    loss = distill_loss(q, v_s @ v_e.T / tau, tau_d)

    def backward():
        dz = loss.grads["student_logits"]
        g_s = student.backward_texts(cache_s, dz @ v_e / tau)
        return {"flat": g_s + student.backward_texts(cache_e, dz.T @ v_s / tau)}

    return LossWithGrad(loss.value, backward)


def teacher_evidence_distribution(
    teacher: TeacherGrounder,
    sentences: list[str],
    evidences,
    tau_d: float,
) -> np.ndarray:
    """tau_d-tempered softmax of the teacher's grounding logits, one
    ``(n_evidences,)`` row per sentence."""
    logits = grounding_logits(sentences, evidences, teacher.texts, teacher.tau)
    return softmax(logits, temperature=tau_d)


def train_student(
    reports: list[tuple[PatientRecord, ClinicalReport]],
    teacher: TeacherGrounder,
    cfg: DistillConfig,
    *,
    seed: int,
) -> tuple[Embedder, list[dict]]:
    """Minimize ``student_loss`` over all generated sentences, one
    SGD step per generated report on the mean loss over its sentences.

    Candidates for each sentence are restricted to its patient's evidence
    set, which all sentences of a report share; reports without reasoning
    sentences are skipped. Returns the student and one log row per epoch of
    ``epoch, loss``, the per-sentence mean loss.
    """
    if not teacher.trained:
        raise UntrainedTeacherError("teacher must be trained before distillation")
    if not reports:
        raise EmptyDatasetError("no generated reports")

    student = Embedder(
        teacher.embedder.vocab_hash_dim,
        teacher.embedder.base_dim,
        teacher.embedder.embed_dim,
        seed=seed + 1,
    )
    teacher_before = teacher.embedder.flat.copy()

    # cache teacher targets and head-independent features once per report
    items = []
    for record, parsed in reports:
        sentences = parsed.reasoning_sentences
        if not sentences:
            continue
        q = teacher_evidence_distribution(
            teacher, sentences, record.evidence, cfg.distill_temperature
        )
        feat_s = student.features_of_texts(sentences)
        feat_e = student.features_of_texts([e.descriptor for e in record.evidence])
        items.append((feat_s, feat_e, q))
    if not items:
        raise EmptyDatasetError("generated reports contain no sentences")
    n_sentences = sum(len(q) for _, _, q in items)

    rng = np.random.default_rng(seed)
    rows = []
    for epoch in range(cfg.epochs):
        total = 0.0
        for idx in rng.permutation(len(items)):
            feat_s, feat_e, q = items[idx]
            loss = student_loss(student, feat_s, feat_e, q, teacher.tau, cfg.distill_temperature)
            total += loss.value * len(q)
            student.flat -= cfg.lr * loss.grads["flat"]
        rows.append({"epoch": epoch, "loss": total / n_sentences})

    if not np.array_equal(teacher_before, teacher.embedder.flat):
        raise AssertionError("teacher parameters changed during distillation")
    return student, rows


def _held_out(
    teacher: TeacherGrounder, student: FrozenTexts, cohort, tau_d: float
) -> tuple[float, float, float]:
    """Teacher R@3, student R@3 and the student's mean tau_d^2 *
    KL(teacher || student) over the test split's grounding sentences (the
    reasoning sentences of its generated reports), each against its
    patient's evidence set; each patient's sentences are scored in one
    product per embedder."""
    by_patient: dict[str, list] = {}
    for row in cohort.rows_for("test"):
        by_patient.setdefault(row.patient_id, []).append(row)
    r3_teacher, r3_student, kl = [], [], []
    for pid, rows in by_patient.items():
        evidence = cohort.records[pid].evidence
        sentences = [row.sentence for row in rows]
        z_t = grounding_logits(sentences, evidence, teacher.texts, teacher.tau)
        z_s = grounding_logits(sentences, evidence, student, teacher.tau)
        q = softmax(z_t, temperature=tau_d)
        p = softmax(z_s, temperature=tau_d)
        for i, row in enumerate(rows):
            gold = set(row.evidence_ids)
            r3_teacher.append(recall_at_k(evidence_ranking(z_t[i], evidence), gold, 3))
            r3_student.append(recall_at_k(evidence_ranking(z_s[i], evidence), gold, 3))
            kl.append(tau_d * tau_d * kl_divergence(q[i], p[i]))
    return float(np.mean(r3_teacher)), float(np.mean(r3_student)), float(np.mean(kl))


def generated_reports_for(cohort, ids: list[str]) -> list[tuple[PatientRecord, ClinicalReport]]:
    """Template-rendered reports used as the distillation corpus; their
    grounding labels are never consulted."""
    from .report import parse_report

    out = []
    for pid in ids:
        out.append((cohort.records[pid], parse_report(cohort.gold_report(pid))))
    return out


def label_efficiency_experiment(
    cohort,
    fractions: list[float],
    distill_cfg: DistillConfig | None = None,
    grounder_cfg: GrounderConfig | None = None,
    *,
    seed: int,
) -> list[dict]:
    """Per fraction: teacher on the labeled subset, student distilled on all
    generated train reports, both evaluated on the held-out split by R@3;
    ``student_kl`` is the student's held-out distillation loss."""
    if not fractions:
        raise ValidationError("no label fractions given")
    base_distill = distill_cfg or DistillConfig()
    base_grounder = grounder_cfg or GrounderConfig(train_decoder=False)
    train_ids = list(cohort.split["train"])
    rng = np.random.default_rng(seed)
    shuffled = list(rng.permutation(train_ids))
    reports = generated_reports_for(cohort, train_ids)

    rows = []
    for fraction in fractions:
        if not 0.0 < fraction <= 1.0:
            raise ValidationError(f"fraction {fraction} outside (0, 1]")
        n_labeled = int(round(fraction * len(train_ids)))
        if n_labeled < 8:
            raise InsufficientLabelsError(
                f"fraction {fraction} keeps only {n_labeled} labeled patients"
            )
        labeled = shuffled[:n_labeled]
        emb_t, _, _ = train_grounding(cohort, base_grounder, patient_ids=labeled, seed=seed)
        teacher = TeacherGrounder(emb_t, tau=base_grounder.tau, trained=True)
        student, _ = train_student(reports, teacher, base_distill, seed=seed)
        teacher_r3, student_r3, student_kl = _held_out(
            teacher, FrozenTexts(student), cohort, base_distill.distill_temperature
        )
        rows.append(
            {
                "fraction": fraction,
                "teacher_r3": teacher_r3,
                "student_r3": student_r3,
                "ratio": student_r3 / teacher_r3 if teacher_r3 > 0 else 0.0,
                "student_kl": student_kl,
            }
        )
    return rows

"""Grounding transfer by temperature-scaled KL distillation.

A frozen teacher grounder produces soft evidence distributions for the
sentences of generated reports; a student embedder is trained to match
them. Teacher outputs are computed once and cached, so they are bitwise
identical across epochs, and no gradient ever touches teacher parameters.
The teacher's targets come from one embedding per distinct text (its
:class:`~eviground.textenc.FrozenTexts` memo), which the held-out recall of
the teacher reuses.
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
from .grounding import GrounderConfig, train_grounding
from .losses import PROB_FLOOR, LossWithGrad, kl_divergence, softmax
from .metrics import rank_evidences, recall_at_k
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
    lambda_kl: float = 1.0
    epochs: int = 20
    lr: float = 0.5
    init_from_teacher: bool = False

    def __post_init__(self):
        if self.distill_temperature <= 0:
            raise ValidationError("distill_temperature must be positive")


def distill_loss(teacher_p: np.ndarray, student_logits: np.ndarray, tau_d: float) -> LossWithGrad:
    """tau_d^2 * KL(teacher || softmax(student_logits / tau_d)).

    Gradient is with respect to the student logits only.
    """
    q = np.asarray(teacher_p, dtype=np.float64)
    z = np.asarray(student_logits, dtype=np.float64)
    if q.shape != z.shape:
        raise ValidationError(f"length mismatch: {q.shape} vs {z.shape}")
    p = softmax(z, temperature=tau_d)
    value = tau_d * tau_d * kl_divergence(q, p)
    # only terms with q_i > 0 and p_i above the floor contribute to the value
    active = (q > 0) & (p > PROB_FLOOR)
    q_active = np.where(active, q, 0.0)
    grad = tau_d * (p * q_active.sum() - q_active)
    return LossWithGrad(value, {"student_logits": grad})


def teacher_evidence_distribution(
    teacher: TeacherGrounder,
    sentence: str,
    evidences,
    tau_d: float,
) -> np.ndarray:
    """tau_d-tempered softmax of the teacher's grounding logits."""
    from .grounding import grounding_logits

    logits = grounding_logits(sentence, evidences, teacher.texts, teacher.tau)
    return softmax(logits, temperature=tau_d)


def train_student(
    reports: list[tuple[PatientRecord, ClinicalReport]],
    teacher: TeacherGrounder,
    cfg: DistillConfig,
    *,
    seed: int,
) -> tuple[Embedder, list[float]]:
    """Minimize lambda_kl * distill loss over all generated sentences.

    Candidates for each sentence are restricted to its patient's evidence
    set. Returns the student and the per-epoch loss curve.
    """
    if not teacher.trained:
        raise UntrainedTeacherError("teacher must be trained before distillation")
    if not reports:
        raise EmptyDatasetError("no generated reports")

    student = (
        teacher.embedder.copy()
        if cfg.init_from_teacher
        else Embedder(
            teacher.embedder.vocab_hash_dim,
            teacher.embedder.base_dim,
            teacher.embedder.embed_dim,
            seed=seed + 1,
        )
    )
    teacher_before = teacher.embedder.flat.copy()

    # cache teacher targets and head-independent features once
    items = []
    for record, parsed in reports:
        descriptors = [e.descriptor for e in record.evidence]
        feat_e = student.features_of_texts(descriptors)
        for sentence in parsed.reasoning_sentences:
            q = teacher_evidence_distribution(
                teacher, sentence, record.evidence, cfg.distill_temperature
            )
            feat_s = student.features_of_texts([sentence])
            items.append((feat_s, feat_e, q))
    if not items:
        raise EmptyDatasetError("generated reports contain no sentences")

    rng = np.random.default_rng(seed)
    curve = []
    for _ in range(cfg.epochs):
        total = 0.0
        for idx in rng.permutation(len(items)):
            feat_s, feat_e, q = items[idx]
            v_s, cache_s = student.encode_features(feat_s)
            v_e, cache_e = student.encode_features(feat_e)
            logits = (v_s @ v_e.T).ravel() / teacher.tau
            loss = distill_loss(q, logits, cfg.distill_temperature)
            total += cfg.lambda_kl * loss.value
            dz = cfg.lambda_kl * loss.grads["student_logits"]
            d_vs = (dz[None, :] @ v_e) / teacher.tau
            d_ve = dz[:, None] * v_s / teacher.tau  # np.outer(dz, v_s), v_s is one row
            g_s = student.backward_texts(cache_s, d_vs)
            g_e = student.backward_texts(cache_e, d_ve)
            student.flat -= cfg.lr * (g_s + g_e)
        curve.append(total / len(items))

    if not np.array_equal(teacher_before, teacher.embedder.flat):
        raise AssertionError("teacher parameters changed during distillation")
    return student, curve


def _split_r3(texts: FrozenTexts, cohort, split: str, tau: float) -> float:
    values = []
    for row in cohort.rows_for(split):
        record = cohort.records[row.patient_id]
        ranked = rank_evidences(row.sentence, record, texts, tau)
        values.append(recall_at_k(ranked, set(row.evidence_ids), 3))
    return float(np.mean(values))


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
    generated train reports, both evaluated on the held-out split."""
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
        teacher_r3 = _split_r3(teacher.texts, cohort, "test", base_grounder.tau)
        student_r3 = _split_r3(FrozenTexts(student), cohort, "test", base_grounder.tau)
        rows.append(
            {
                "fraction": fraction,
                "teacher_r3": teacher_r3,
                "student_r3": student_r3,
                "ratio": student_r3 / teacher_r3 if teacher_r3 > 0 else 0.0,
            }
        )
    return rows

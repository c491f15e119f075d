"""Retrieval and segmentation metrics plus the evaluation drivers."""

from __future__ import annotations

import csv
from pathlib import Path

import numpy as np

from .errors import EmptyGoldError
from .grounding import grounding_logits
from .records import EvidenceItem, PatientRecord
from .report import parse_report
from .rules import EntailmentScorer, RuleConfig, total_reward
from .segdecoder import SegDecoder, decode_mask
from .textenc import FrozenTexts, tokenize

DICE_THRESHOLD = 0.5  # a voxel at or above this probability is predicted inside the structure


def recall_at_k(ranked: list[str], gold: set[str], k: int) -> float:
    """Fraction of gold items recovered in the top k."""
    if not gold:
        raise EmptyGoldError("empty gold set")
    if k < 1:
        raise ValueError("k must be >= 1")
    hits = len(set(ranked[:k]) & set(gold))
    return min(1.0, hits / len(gold))


def average_precision(ranked: list[str], gold: set[str]) -> float:
    """Precision at each gold hit, averaged over the gold size."""
    if not gold:
        raise EmptyGoldError("empty gold set")
    gold = set(gold)
    hits = 0
    acc = 0.0
    for rank, item in enumerate(ranked, start=1):
        if item in gold:
            hits += 1
            acc += hits / rank
    return acc / len(gold)


def mean_average_precision(rankings: list[list[str]], golds: list[set[str]]) -> float:
    if not rankings:
        raise EmptyGoldError("no queries")
    return float(np.mean([average_precision(r, g) for r, g in zip(rankings, golds)]))


def evidence_ranking(logits: np.ndarray, evidence: list[EvidenceItem]) -> list[str]:
    """Evidence ids, highest logit first; ties keep list order."""
    order = np.argsort(-logits, kind="stable")
    return [evidence[j].id for j in order]


def rank_evidences(
    sentences: list[str], record: PatientRecord, emb, tau: float
) -> list[list[str]]:
    """Per sentence, the patient's evidence ids, most similar first; ties keep
    list order. All the sentences are scored in one product."""
    logits = grounding_logits(sentences, record.evidence, emb, tau)
    return [evidence_ranking(row, record.evidence) for row in logits]


def eval_grounding(
    emb,
    decoder: SegDecoder | None,
    cohort,
    split: str = "test",
    tau: float = 0.07,
) -> dict:
    """Sentence-evidence retrieval metrics and per-structure mask Dice.

    Dice is reported for the evidence-conditioned decoder and for the same
    decoder with its cross-attention output zeroed (image-only ablation).
    """
    from .losses import dice_score

    by_patient: dict[str, list] = {}
    for row in cohort.rows_for(split):
        by_patient.setdefault(row.patient_id, []).append(row)
    texts = FrozenTexts(emb)
    rankings, golds = [], []
    for pid, rows in by_patient.items():
        sentences = [row.sentence for row in rows]
        rankings += rank_evidences(sentences, cohort.records[pid], texts, tau)
        golds += [set(row.evidence_ids) for row in rows]

    metrics = {
        "r_at_1": float(np.mean([recall_at_k(r, g, 1) for r, g in zip(rankings, golds)])),
        "r_at_3": float(np.mean([recall_at_k(r, g, 3) for r, g in zip(rankings, golds)])),
        "map": mean_average_precision(rankings, golds),
    }

    if decoder is not None:
        per_structure: dict[str, list[float]] = {}
        per_structure_ablated: dict[str, list[float]] = {}
        for pid in cohort.split[split]:
            record = cohort.records[pid]
            tokens = decoder.volume_to_tokens(cohort.volume(pid))
            ablated = None
            for item in record.evidence:
                if item.anatomy_ref is None:
                    continue
                ev_tokens = emb.embed_tokens(tokenize(item.descriptor))
                gt = cohort.mask(pid, item.anatomy_ref)
                probs = decode_mask(decoder, tokens, ev_tokens)
                if ablated is None:
                    # zeroed cross-attention ignores the evidence bit for bit,
                    # so one ablated pass serves every evidence of the patient
                    ablated = decode_mask(decoder, tokens, ev_tokens, zero_cross_attention=True)
                for store, pass_probs in ((per_structure, probs), (per_structure_ablated, ablated)):
                    pred = (pass_probs >= DICE_THRESHOLD).astype(np.float64)
                    store.setdefault(item.anatomy_ref, []).append(dice_score(pred, gt))
        for structure, vals in sorted(per_structure.items()):
            metrics[f"dice.{structure}"] = float(np.mean(vals))
            metrics[f"dice_ablated.{structure}"] = float(np.mean(per_structure_ablated[structure]))
        all_vals = [v for vals in per_structure.values() for v in vals]
        all_ablated = [v for vals in per_structure_ablated.values() for v in vals]
        metrics["dice.overall"] = float(np.mean(all_vals))
        metrics["dice_ablated.overall"] = float(np.mean(all_ablated))
    return metrics


def eval_consistency(
    reports: list[tuple[PatientRecord, str]],
    rule_cfg: RuleConfig,
    scorer: EntailmentScorer,
) -> dict:
    """Table 'accuracy / valid-format rate / guideline-consistency rate /
    entailment rate' over (record, report text) pairs."""
    if not reports:
        raise EmptyGoldError("no reports to evaluate")
    acc, fmt, nia, ent = [], [], [], []
    for record, text in reports:
        parsed = parse_report(text)
        breakdown = total_reward(parsed, record, rule_cfg, scorer)
        acc.append(1.0 if parsed.diagnosis == record.gt_label else 0.0)
        fmt.append(breakdown.r_format)
        nia.append(1.0 if breakdown.r_nia >= rule_cfg.nia_consistent_threshold else 0.0)
        ent.append(1.0 if breakdown.r_consistency == 1.0 else 0.0)
    return {
        "accuracy": float(np.mean(acc)),
        "valid_format_rate": float(np.mean(fmt)),
        "nia_consistency_rate": float(np.mean(nia)),
        "entailment_rate": float(np.mean(ent)),
    }


def write_metrics_csv(path: str | Path, metrics: dict) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["metric", "value"])
        for key in sorted(metrics):
            writer.writerow([key, metrics[key]])


def write_rows_csv(path: str | Path, rows: list[dict]) -> None:
    """One CSV line per row; the first row's keys, in order, are the header."""
    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=list(rows[0]))
        writer.writeheader()
        writer.writerows(rows)

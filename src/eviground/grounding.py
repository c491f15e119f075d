"""Sentence-evidence contrastive grounding.

Implements the multi-positive InfoNCE objective in both directions
(sentence->evidence and evidence->sentence) as a negative log-likelihood,
averaged over positives per anchor and over anchors per direction, with
analytic gradients for the embedder head. Negatives are all in-batch
non-positives; only the paired positive appears in its own denominator.

A batch's gold links are one ``(n_sentences, n_evidences)`` bool mask
(``GroundingBatch.positive_mask``); each direction is one masked array
expression over it, the evidence->sentence one on the transposes. Every
logit, in training, ranking and distillation alike, is the product of
L2-normalized vectors over tau, ``v_s @ v_e.T / tau``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import zip_longest

import numpy as np

from .errors import EmptyEvidenceError, NoPositiveError, ValidationError
from .losses import LossWithGrad
from .records import EvidenceItem


@dataclass
class GroundingBatch:
    sentences: list[str]
    evidences: list[EvidenceItem]
    positive_pairs: set[tuple[int, int]] = field(default_factory=set)

    def __post_init__(self):
        self.positive_pairs = set(map(tuple, self.positive_pairs))
        for si, ei in self.positive_pairs:
            if not (0 <= si < len(self.sentences) and 0 <= ei < len(self.evidences)):
                raise ValidationError(f"positive pair ({si}, {ei}) out of range")

    def positive_mask(self) -> np.ndarray:
        """``(n_sentences, n_evidences)`` bool array, True at each positive pair."""
        mask = np.zeros((len(self.sentences), len(self.evidences)), dtype=bool)
        for si, ei in self.positive_pairs:
            mask[si, ei] = True
        return mask


def _directional_terms(kap: np.ndarray, pos: np.ndarray, tau: float):
    """Anchor-averaged NLL terms for one direction, and a function that
    returns d(loss)/d(similarity).

    ``kap`` is (n_anchors, n_candidates) of exp(sim/tau) and ``pos`` the bool
    mask of each anchor's positives; the other columns are its negatives.
    """
    n = kap.shape[0]
    n_pos = pos.sum(axis=1, keepdims=True)
    if not n_pos.all():
        raise NoPositiveError(f"anchor {int(np.argmin(n_pos))} has no positive pair")
    neg = np.where(pos, 0.0, kap)
    denom = kap + neg.sum(axis=1, keepdims=True)  # meaningful only where pos holds
    w = pos / n_pos
    ratio = kap / denom
    loss = -(w * np.log(np.where(pos, ratio, 1.0))).sum() / n

    def grad():
        # d(-log(k_ij / D_ij)) / d sim: (k_ij/D_ij - 1)/tau at the positive j,
        # k_ik/(D_ij*tau) at every negative k
        return (w * (ratio - 1.0) + neg * (w / denom).sum(axis=1, keepdims=True)) / (tau * n)

    return float(loss), grad


def infonce_from_features(
    feat_s: np.ndarray, feat_e: np.ndarray, pos: np.ndarray, emb, tau: float
) -> LossWithGrad:
    """Feature-level core of the loss; lets trainers reuse cached features
    and the batch's positive mask. The features are copied: the encode
    caches keep them for the backward."""
    v_s, cache_s = emb.encode_features(np.array(feat_s))
    v_e, cache_e = emb.encode_features(np.array(feat_e))
    kap = np.exp(v_s @ v_e.T / tau)

    loss_se, grad_se = _directional_terms(kap, pos, tau)
    loss_es, grad_es = _directional_terms(kap.T, pos.T, tau)

    def backward():
        g_sim = grad_se() + grad_es().T  # d(loss)/d(sim matrix)
        g_s = emb.backward_texts(cache_s, g_sim @ v_e)
        return {"flat": g_s + emb.backward_texts(cache_e, g_sim.T @ v_s)}

    return LossWithGrad(loss_se + loss_es, backward)


def multi_positive_infonce(batch: GroundingBatch, emb, tau: float = 0.07) -> LossWithGrad:
    """Sum of the two directional anchor means, with head gradients."""
    if max(len(batch.sentences), len(batch.evidences)) < 2:
        raise ValidationError("batch needs at least two items on one side")
    return infonce_from_features(
        emb.features_of_texts(batch.sentences),
        emb.features_of_texts([e.descriptor for e in batch.evidences]),
        batch.positive_mask(),
        emb,
        tau,
    )


def grounding_logits(
    sentences: list[str], evidences: list[EvidenceItem], emb, tau: float
) -> np.ndarray:
    """``(n_sentences, n_evidences)`` logits ``v_s @ v_e.T / tau`` over unit
    text vectors, the product the trainers use; ranking and distillation
    both read it.

    ``emb`` needs only ``embed_text``, so a :class:`~eviground.textenc.FrozenTexts`
    memo serves as well as an embedder."""
    if not evidences:
        raise EmptyEvidenceError("no candidate evidences")
    v_s = np.stack([emb.embed_text(s) for s in sentences])
    v_e = np.stack([emb.embed_text(e.descriptor) for e in evidences])
    return v_s @ v_e.T / tau


@dataclass
class GrounderConfig:
    """Training knobs for the contrastive embedder and the mask decoder."""

    epochs: int = 12
    lr: float = 0.5
    tau: float = 0.07
    lambda_dice: float = 1.0
    lambda_bce: float = 1.0
    train_decoder: bool = True
    decoder_epochs: int = 60
    decoder_lr: float = 2e-3
    decoder_layers: int = 4

    def __post_init__(self):
        if self.epochs < 1 or self.tau <= 0 or self.lr <= 0 or self.decoder_lr <= 0:
            raise ValidationError("epochs >= 1, tau > 0, lr > 0, decoder_lr > 0 required")
        if self.decoder_epochs < 1 or self.decoder_layers < 1:
            raise ValidationError("decoder_epochs >= 1 and decoder_layers >= 1 required")
        if min(self.lambda_dice, self.lambda_bce) < 0:
            raise ValidationError("loss weights must be nonnegative")


def batch_from_rows(record, rows) -> GroundingBatch:
    """One patient's sentences, evidences, and gold links as a batch."""
    id_to_idx = {e.id: j for j, e in enumerate(record.evidence)}
    pairs = {
        (i, id_to_idx[eid])
        for i, row in enumerate(rows)
        for eid in row.evidence_ids
    }
    return GroundingBatch([row.sentence for row in rows], list(record.evidence), pairs)


def train_grounding(
    cohort, cfg: GrounderConfig, patient_ids: list[str] | None = None, *, seed: int
):
    """Fit the embedder on per-patient contrastive batches, then the mask
    decoder on (volume tokens, evidence tokens, mask) triples.

    Returns (embedder, decoder-or-None, rows): one log row per epoch of
    ``epoch, l_se, l_mask, g_mask`` (contrastive loss, mask loss and mean
    decoder gradient norm), "" where one curve is shorter than the other.
    """
    from .textenc import Embedder, tokenize
    from .segdecoder import SegDecoder, SegDecoderConfig, train_mask_decoder

    ids = list(patient_ids if patient_ids is not None else cohort.split["train"])
    if not ids:
        raise ValidationError("no training patients")
    wanted = set(ids)
    by_patient = {}
    for row in cohort.grounding:
        if row.patient_id in wanted:
            by_patient.setdefault(row.patient_id, []).append(row)

    emb = Embedder(seed=seed)
    prepared = []
    for pid in ids:
        record = cohort.records[pid]
        batch = batch_from_rows(record, by_patient[pid])
        prepared.append(
            (
                emb.features_of_texts(batch.sentences),
                emb.features_of_texts([e.descriptor for e in batch.evidences]),
                batch.positive_mask(),
            )
        )

    rng = np.random.default_rng(seed)
    se_curve = []
    for _ in range(cfg.epochs):
        total = 0.0
        for idx in rng.permutation(len(prepared)):
            loss = infonce_from_features(*prepared[idx], emb, cfg.tau)
            total += loss.value
            emb.flat -= cfg.lr * loss.grads["flat"]
        se_curve.append(total / len(prepared))

    decoder = None
    mask_rows: list[dict] = []
    if cfg.train_decoder:
        dec_cfg = SegDecoderConfig(
            volume_dim=cohort.volume(ids[0]).shape[0],
            layers=cfg.decoder_layers,
            token_dim=emb.embed_dim,
            seed=seed,
        )
        decoder = SegDecoder(dec_cfg)
        samples = []
        for pid in ids:
            record = cohort.records[pid]
            tokens = decoder.volume_to_tokens(cohort.volume(pid))
            for item in record.evidence:
                if item.anatomy_ref is None:
                    continue
                ev_tokens = emb.embed_tokens(tokenize(item.descriptor))
                # binary 0/1 masks kept as bool; each batch casts back exactly
                mask = cohort.mask(pid, item.anatomy_ref).astype(bool)
                samples.append((tokens, ev_tokens, mask))
        mask_rows = train_mask_decoder(
            decoder,
            samples,
            epochs=cfg.decoder_epochs,
            lr=cfg.decoder_lr,
            lambda_dice=cfg.lambda_dice,
            lambda_bce=cfg.lambda_bce,
            seed=seed,
        )
    blank = {"l_mask": "", "g_mask": ""}
    curves = zip_longest(se_curve, mask_rows, fillvalue="")
    return emb, decoder, [
        {"epoch": i, "l_se": s, **(m or blank)} for i, (s, m) in enumerate(curves)
    ]

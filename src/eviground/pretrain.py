"""Alignment-stage objectives: symmetric image-text contrastive loss and
reconstruction losses, plus a small driver that trains linear
encoders/decoders over cohort volumes and record text.

A driver step handles its batch as matrix products: the reconstruction
losses take all of its rows at once, each sample's token loss reads one
logit row, and each of the six tensors (views of one flat vector) is
updated in place by its own gradient."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import tensorio
from .errors import DimMismatchError, EmptyDatasetError, IndexOutOfRangeError, ValidationError
from .losses import PROB_FLOOR, LossWithGrad, mse_loss, softmax
from .textenc import token_bucket, tokenize


def itc_loss(img_feats: np.ndarray, txt_feats: np.ndarray, tau: float = 0.07) -> LossWithGrad:
    """Mean of image->text and text->image cross-entropies over the pairwise
    similarity matrix, diagonal pairs as targets.

    Rows are expected unit-normalized; similarities are plain dot products.
    """
    # copies, read by the backward
    f_i = np.array(img_feats, dtype=np.float64)
    f_t = np.array(txt_feats, dtype=np.float64)
    if f_i.shape != f_t.shape:
        raise DimMismatchError(f"batch shapes differ: {f_i.shape} vs {f_t.shape}")
    b = f_i.shape[0]
    if b < 2:
        raise ValidationError("need batch size >= 2")

    s_i2t = f_i @ f_t.T / tau
    s_t2i = f_t @ f_i.T / tau

    p_i2t = softmax(s_i2t)
    p_t2i = softmax(s_t2i)
    idx = np.arange(b)
    value = float(
        0.5 * (-np.mean(np.log(p_i2t[idx, idx])) - np.mean(np.log(p_t2i[idx, idx])))
    )

    def backward():
        d_i2t = p_i2t.copy()
        d_i2t[idx, idx] -= 1.0
        d_i2t /= 2.0 * b * tau
        d_t2i = p_t2i.copy()
        d_t2i[idx, idx] -= 1.0
        d_t2i /= 2.0 * b * tau

        # image rows get i2t query grads plus t2i candidate grads
        grad_img = d_i2t @ f_t + d_t2i.T @ f_t
        grad_txt = d_t2i @ f_i + d_i2t.T @ f_i
        return {"img_feats": grad_img, "txt_feats": grad_txt}

    return LossWithGrad(value, backward)


def reconstruction_losses(
    x_v: np.ndarray,
    x_v_hat: np.ndarray,
    token_targets: list[np.ndarray],
    txt_logits: np.ndarray,
) -> tuple[LossWithGrad, LossWithGrad]:
    """Batch means of the per-sample pixel MSE and token cross-entropy, with
    the gradients of those means; the stage objective l_itc + lambda_res *
    (sum of these) is assembled by the caller.

    ``x_v`` and ``x_v_hat`` are (B, D); ``txt_logits`` is one (B, vocab)
    logit row per sample, which every decoding step of that sample reads,
    and ``token_targets`` holds each sample's target ids. A sample's NLL is
    the mean over its targets of -log max(p[t], PROB_FLOOR). Its gradient,
    summed over the steps, is ``(p * n_active - counts) / steps``, where a
    target is active when its probability is above ``PROB_FLOOR`` and
    ``counts`` are the active targets' occurrences.
    """
    txt_logits = np.asarray(txt_logits, dtype=np.float64)
    b = len(token_targets)
    if np.ndim(x_v) != 2 or txt_logits.ndim != 2 or len(x_v) != b or len(txt_logits) != b:
        raise DimMismatchError("need (B, D) volumes, (B, vocab) logits and B target lists")
    vocab = txt_logits.shape[1]
    # every sample has D pixels, so the mean over the batch's pixels is
    # the mean of the per-sample MSEs
    res_v = mse_loss(x_v, x_v_hat)

    steps = np.array([len(t) for t in token_targets])
    if steps.min() < 1:
        raise ValidationError("every sample needs at least one target token")
    targets = np.concatenate(token_targets).astype(np.int64)
    if targets.min() < 0 or targets.max() >= vocab:
        raise IndexOutOfRangeError("target index outside vocabulary")
    rows = np.repeat(np.arange(b), steps)
    probs = softmax(txt_logits)
    picked = probs[rows, targets]
    nll = np.bincount(rows, weights=-np.log(np.maximum(picked, PROB_FLOOR)), minlength=b)

    def backward():
        # d/dp of -log(max(p, floor)) is 0 below the floor
        active = (picked > PROB_FLOOR).astype(np.float64)
        counts = np.bincount(rows * vocab + targets, weights=active, minlength=b * vocab)
        n_active = np.bincount(rows, weights=active, minlength=b)
        dlogits = (probs * n_active[:, None] - counts.reshape(b, vocab)) / (b * steps[:, None])
        return {"txt_logits": dlogits}

    return res_v, LossWithGrad(float(np.mean(nll / steps)), backward)


@dataclass
class PretrainConfig:
    steps: int = 200
    batch_size: int = 8
    lr: float = 0.05
    tau: float = 0.07
    lambda_res: float = 0.5
    max_text_tokens: int = 24

    def __post_init__(self):
        if self.steps < 1 or self.batch_size < 2 or self.max_text_tokens < 1:
            raise ValidationError("steps >= 1, batch_size >= 2 and max_text_tokens >= 1 required")
        if self.lambda_res < 0 or self.tau <= 0 or self.lr <= 0:
            raise ValidationError("lambda_res >= 0, tau > 0 and lr > 0 required")


def _normalize_rows(x: np.ndarray):
    norms = np.linalg.norm(x, axis=1, keepdims=True)
    return x / norms, norms


def _backprop_normalize(d_unit: np.ndarray, unit: np.ndarray, norms: np.ndarray) -> np.ndarray:
    inner = np.sum(unit * d_unit, axis=1, keepdims=True)
    return (d_unit - inner * unit) / norms


@dataclass
class PretrainData:
    """Pooled image features, hashed text features, and token targets."""

    img_pooled: np.ndarray  # (n, n_patches)
    volumes: np.ndarray  # (n, dim, dim, dim)
    txt_feats: np.ndarray  # (n, base_dim)
    token_ids: list[np.ndarray]  # per-sample hashed token targets
    vocab: int


def pretrain_data_from_cohort(cohort, split: str = "train", cfg: PretrainConfig | None = None) -> PretrainData:
    from .segdecoder import patchify
    from .textenc import Embedder

    cfg = cfg or PretrainConfig()
    helper = Embedder()
    ids = cohort.split[split]
    if not ids:
        raise EmptyDatasetError(f"no patients in the {split!r} split to pretrain on")
    volumes = np.stack([cohort.volume(pid) for pid in ids])
    patch = 4
    img_pooled = np.stack([patchify(v, patch).mean(axis=1) for v in volumes])
    texts = [
        " ".join(e.descriptor for e in cohort.records[pid].evidence) for pid in ids
    ]
    txt_feats = helper.features_of_texts(texts)
    token_ids = [
        np.array(
            [token_bucket(t, helper.vocab_hash_dim) for t in tokenize(text)][: cfg.max_text_tokens]
        )
        for text in texts
    ]
    return PretrainData(img_pooled, volumes, txt_feats, token_ids, helper.vocab_hash_dim)


def run_pretrain(data: PretrainData, cfg: PretrainConfig, *, seed: int) -> list[dict]:
    """Train linear encoders with ITC plus reconstruction; returns step logs."""
    rng = np.random.default_rng(seed)
    n, img_dim = data.img_pooled.shape
    txt_dim = data.txt_feats.shape[1]
    d = 32
    vol_flat = data.volumes.reshape(n, -1)

    slots = tensorio.flat_layout([
        ("img_enc", (img_dim, d)), ("txt_enc", (txt_dim, d)),
        ("img_dec", (d, vol_flat.shape[1])), ("img_dec_b", (vol_flat.shape[1],)),
        ("txt_dec", (d, data.vocab)), ("txt_dec_b", (data.vocab,)),
    ])
    flat = np.zeros(slots[-1][2])
    params = tensorio.views(flat, slots)
    # draw order is part of the seed contract; the biases start at zero
    params["img_enc"][...] = rng.normal(0, 1 / np.sqrt(img_dim), (img_dim, d))
    params["txt_enc"][...] = rng.normal(0, 1 / np.sqrt(txt_dim), (txt_dim, d))
    params["img_dec"][...] = rng.normal(0, 0.01, (d, vol_flat.shape[1]))
    params["txt_dec"][...] = rng.normal(0, 0.01, (d, data.vocab))

    history = []
    for step in range(cfg.steps):
        idx = rng.choice(n, size=min(cfg.batch_size, n), replace=False)
        img_in = data.img_pooled[idx]
        txt_in = data.txt_feats[idx]

        img_f, img_norms = _normalize_rows(img_in @ params["img_enc"])
        txt_f, txt_norms = _normalize_rows(txt_in @ params["txt_enc"])
        itc = itc_loss(img_f, txt_f, cfg.tau)

        d_img_f = itc.grads["img_feats"]
        d_txt_f = itc.grads["txt_feats"]
        grads = {}
        res_v_val, res_t_val = 0.0, 0.0
        if cfg.lambda_res > 0:
            # reconstruction branches read the normalized features
            x_hat = img_f @ params["img_dec"] + params["img_dec_b"]
            logits = txt_f @ params["txt_dec"] + params["txt_dec_b"]
            res_v, res_t = reconstruction_losses(
                vol_flat[idx], x_hat, [data.token_ids[i] for i in idx], logits
            )
            res_v_val, res_t_val = res_v.value, res_t.value
            dxhat = cfg.lambda_res * res_v.grads["x_hat"]
            dlogits = cfg.lambda_res * res_t.grads["txt_logits"]
            grads["img_dec"] = img_f.T @ dxhat
            grads["img_dec_b"] = dxhat.sum(axis=0)
            grads["txt_dec"] = txt_f.T @ dlogits
            grads["txt_dec_b"] = dlogits.sum(axis=0)
            d_img_f = d_img_f + dxhat @ params["img_dec"].T
            d_txt_f = d_txt_f + dlogits @ params["txt_dec"].T

        grads["img_enc"] = img_in.T @ _backprop_normalize(d_img_f, img_f, img_norms)
        grads["txt_enc"] = txt_in.T @ _backprop_normalize(d_txt_f, txt_f, txt_norms)
        # scaled in place: a separate lr * g temporary for img_dec makes
        # glibc hand back and re-fault about 2 MB of heap every step
        # (97k minor faults per 200-step run in a fresh process)
        for name, g in grads.items():
            g *= cfg.lr
            params[name] -= g

        history.append(
            {
                "step": step,
                "l_itc": itc.value,
                "l_res_v": res_v_val,
                "l_res_t": res_t_val,
                "l_pt": itc.value + cfg.lambda_res * (res_v_val + res_t_val),
            }
        )
    return history

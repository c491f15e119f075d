"""Evidence-conditioned 3D mask decoder.

A stack of transformer decoder layers over visual patch tokens; each layer
runs self-attention, then cross-attention with visual queries against
evidence text tokens, then a feed-forward block, each with a residual
connection and layer normalization (pre-LN placement: post-LN stacks
collapse all patch tokens to one vector here, killing localization). A
linear head maps normalized tokens back to per-patch voxel logits.
Forward passes cache every intermediate so the backward pass can be
written by hand (no autodiff graph).

Parameter layout: every trainable tensor lives in one contiguous float64
vector, ``SegDecoder.flat``; ``SegDecoder.params`` is a read-only map from
each name to a reshaped view into it (per layer ``l{i}.sa_*``, ``l{i}.ca_*``,
``l{i}.ff_*``, ``l{i}.ln{1,2,3}_*``, then ``lnf_*`` and ``head_*``, 52,480
scalars at the default config). ``backward`` accumulates into one zeroed
vector of the same layout, and ``Adam`` keeps its moments as two more such
vectors and updates the whole vector in place, one ufunc at a time.
Checkpoints keep one EMAD file per name, so the flat layout never reaches
the disk.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from pathlib import Path
from types import MappingProxyType

import numpy as np

from . import tensorio
from .errors import DimMismatchError, ValidationError
from .losses import _sigmoid, dice_bce_loss

_LN_EPS = 1e-5


@dataclass
class SegDecoderConfig:
    volume_dim: int = 16
    patch: int = 4
    token_dim: int = 32
    layers: int = 4
    ffn_hidden: int = 64
    seed: int = 0

    def __post_init__(self):
        if self.layers < 1:
            raise ValidationError("decoder needs at least one layer")
        if self.volume_dim % self.patch != 0:
            raise ValidationError("patch must divide volume_dim")

    @property
    def patches_per_axis(self) -> int:
        return self.volume_dim // self.patch

    @property
    def n_patches(self) -> int:
        return self.patches_per_axis**3

    @property
    def patch_voxels(self) -> int:
        return self.patch**3


def patchify(volume: np.ndarray, patch: int) -> np.ndarray:
    """(D, D, D) volume -> (n_patches, patch^3) rows, row-major patch grid."""
    d = volume.shape[0]
    m = d // patch
    blocks = volume.reshape(m, patch, m, patch, m, patch)
    return blocks.transpose(0, 2, 4, 1, 3, 5).reshape(m**3, patch**3)


def unpatchify(rows: np.ndarray, patch: int, volume_dim: int) -> np.ndarray:
    m = volume_dim // patch
    blocks = rows.reshape(m, m, m, patch, patch, patch)
    return blocks.transpose(0, 3, 1, 4, 2, 5).reshape(volume_dim, volume_dim, volume_dim)


def _axis_positional_encoding(m: int, token_dim: int) -> np.ndarray:
    """Per-axis sinusoidal codes over the (m, m, m) patch grid."""
    pe = np.zeros((m**3, token_dim))
    group = token_dim // 3
    coords = np.stack(np.meshgrid(np.arange(m), np.arange(m), np.arange(m), indexing="ij"))
    coords = coords.reshape(3, -1).T  # (m^3, 3)
    for axis in range(3):
        lo = axis * group
        width = group if axis < 2 else token_dim - 2 * group
        for j in range(width):
            freq = 1.0 / (100.0 ** (2 * (j // 2) / max(width, 1)))
            phase = coords[:, axis] * freq
            pe[:, lo + j] = np.sin(phase) if j % 2 == 0 else np.cos(phase)
    return pe


def _layernorm_forward(x, gamma, beta):
    # sum(...) / d rounds exactly as np.mean (add.reduce, then a divide by the
    # count) without its Python-level wrapper; the backward does the same
    d = x.shape[-1]
    mu = x.sum(axis=-1, keepdims=True) / d
    xc = x - mu
    var = (xc * xc).sum(axis=-1, keepdims=True) / d
    inv = 1.0 / np.sqrt(var + _LN_EPS)
    xhat = xc * inv
    return gamma * xhat + beta, (xhat, inv, gamma)


def _layernorm_backward(dy, cache):
    xhat, inv, gamma = cache
    dgamma = (dy * xhat).sum(axis=0)
    dbeta = dy.sum(axis=0)
    dxhat = dy * gamma
    d = dxhat.shape[-1]
    dx = inv * (
        dxhat
        - dxhat.sum(axis=-1, keepdims=True) / d
        - xhat * ((dxhat * xhat).sum(axis=-1, keepdims=True) / d)
    )
    return dx, dgamma, dbeta


def _attention_forward(q_in, kv_in, wq, wk, wv, wo):
    scale = 1.0 / np.sqrt(q_in.shape[1])
    q = q_in @ wq
    k = kv_in @ wk
    v = kv_in @ wv
    scores = q @ k.T * scale
    scores = scores - scores.max(axis=-1, keepdims=True)
    e = np.exp(scores)
    att = e / e.sum(axis=-1, keepdims=True)
    ctx = att @ v
    out = ctx @ wo
    cache = (q_in, kv_in, q, k, v, att, ctx, scale)
    return out, cache


def _attention_backward(dout, cache, wq, wk, wv, wo):
    q_in, kv_in, q, k, v, att, ctx, scale = cache
    dwo = ctx.T @ dout
    dctx = dout @ wo.T
    datt = dctx @ v.T
    dv = att.T @ dctx
    dscores = att * (datt - (datt * att).sum(axis=-1, keepdims=True))
    dq = dscores @ k * scale
    dk = dscores.T @ q * scale
    dq_in = dq @ wq.T
    dkv_in = dk @ wk.T + dv @ wv.T
    grads = {
        "wq": q_in.T @ dq,
        "wk": kv_in.T @ dk,
        "wv": kv_in.T @ dv,
        "wo": dwo,
    }
    return dq_in, dkv_in, grads


_ATTENTION_KEYS = ("sa_wq", "sa_wk", "sa_wv", "sa_wo", "ca_wq", "ca_wk", "ca_wv", "ca_wo")


def _layout(c: SegDecoderConfig) -> list[tuple[str, int, int, tuple[int, ...]]]:
    """``tensorio.flat_layout`` of every trainable tensor in ``SegDecoder.flat``."""
    d, h = c.token_dim, c.ffn_hidden
    layer = [(name, (d, d)) for name in _ATTENTION_KEYS]
    layer += [("ff_w1", (d, h)), ("ff_b1", (h,)), ("ff_w2", (h, d)), ("ff_b2", (d,))]
    layer += [(f"{ln}_{part}", (d,)) for ln in ("ln1", "ln2", "ln3") for part in ("g", "b")]
    shapes = [(f"l{i}.{name}", shape) for i in range(c.layers) for name, shape in layer]
    shapes += [("lnf_g", (d,)), ("lnf_b", (d,)), ("head_w", (d, c.patch_voxels)),
               ("head_b", (c.patch_voxels,))]
    return tensorio.flat_layout(shapes)


class SegDecoder:
    """Trainable decoder weights plus a frozen patch projection and
    positional table (derived from the config seed, never updated).

    ``flat`` holds every trainable scalar; ``params`` names views into it.
    """

    def __init__(self, cfg: SegDecoderConfig | None = None):
        self.cfg = cfg or SegDecoderConfig()
        c = self.cfg
        rng = np.random.default_rng(c.seed)
        d, h = c.token_dim, c.ffn_hidden
        self._slots = _layout(c)
        self.flat = np.zeros(self._slots[-1][2])
        self.params = MappingProxyType(self.views(self.flat))
        p = self.params
        # draw order is part of the seed contract: keep it when adding tensors
        for i in range(c.layers):
            pre = f"l{i}."
            for name in _ATTENTION_KEYS:
                p[pre + name][...] = rng.normal(0.0, 1.0 / np.sqrt(d), size=(d, d))
            p[pre + "ff_w1"][...] = rng.normal(0.0, 1.0 / np.sqrt(d), size=(d, h))
            p[pre + "ff_w2"][...] = rng.normal(0.0, 1.0 / np.sqrt(h), size=(h, d))
            for name in ("ln1", "ln2", "ln3"):
                p[pre + name + "_g"][...] = 1.0
        p["lnf_g"][...] = 1.0
        p["head_w"][...] = rng.normal(0.0, 0.01, size=(d, c.patch_voxels))
        # start near the foreground prior so BCE does not saturate the sigmoid
        p["head_b"][...] = -3.0
        # frozen visual tokenizer: patch projection + positional table
        self.patch_proj = rng.normal(0.0, 1.0 / np.sqrt(c.patch_voxels), size=(c.patch_voxels, d))
        self.patch_proj.setflags(write=False)
        self.pos_table = _axis_positional_encoding(c.patches_per_axis, d)
        self.pos_table.setflags(write=False)

    def views(self, vec: np.ndarray) -> dict[str, np.ndarray]:
        """Named, reshaped views into a vector laid out like ``flat``."""
        return tensorio.views(vec, self._slots)

    # --- tokenization ---------------------------------------------------------

    def volume_to_tokens(self, volume: np.ndarray) -> np.ndarray:
        c = self.cfg
        if volume.shape != (c.volume_dim,) * 3:
            raise DimMismatchError(f"expected {(c.volume_dim,) * 3} volume, got {volume.shape}")
        return patchify(volume, c.patch) @ self.patch_proj + self.pos_table

    # --- forward / backward ---------------------------------------------------

    def forward(
        self,
        volume_tokens: np.ndarray,
        evidence_tokens: np.ndarray,
        zero_cross_attention: bool = False,
    ):
        """Per-voxel logits volume plus the cache for backward."""
        c = self.cfg
        if volume_tokens.shape != (c.n_patches, c.token_dim):
            raise DimMismatchError(f"bad visual token shape {volume_tokens.shape}")
        if evidence_tokens.ndim != 2 or evidence_tokens.shape[1] != c.token_dim:
            raise DimMismatchError(f"bad evidence token shape {evidence_tokens.shape}")
        if evidence_tokens.shape[0] == 0:
            raise ValidationError("evidence token sequence is empty")
        x = volume_tokens
        t = evidence_tokens
        p = self.params
        layer_caches = []
        for i in range(c.layers):
            pre = f"l{i}."
            a_in, ln1_cache = _layernorm_forward(x, p[pre + "ln1_g"], p[pre + "ln1_b"])
            sa_out, sa_cache = _attention_forward(
                a_in, a_in, p[pre + "sa_wq"], p[pre + "sa_wk"], p[pre + "sa_wv"], p[pre + "sa_wo"]
            )
            x = x + sa_out
            c_in, ln2_cache = _layernorm_forward(x, p[pre + "ln2_g"], p[pre + "ln2_b"])
            ca_out, ca_cache = _attention_forward(
                c_in, t, p[pre + "ca_wq"], p[pre + "ca_wk"], p[pre + "ca_wv"], p[pre + "ca_wo"]
            )
            if zero_cross_attention:
                ca_out = np.zeros_like(ca_out)
            x = x + ca_out
            f_in, ln3_cache = _layernorm_forward(x, p[pre + "ln3_g"], p[pre + "ln3_b"])
            h_pre = f_in @ p[pre + "ff_w1"] + p[pre + "ff_b1"]
            h_act = np.maximum(h_pre, 0.0)
            ff_out = h_act @ p[pre + "ff_w2"] + p[pre + "ff_b2"]
            x = x + ff_out
            layer_caches.append(
                (ln1_cache, sa_cache, ln2_cache, ca_cache, ln3_cache, (f_in, h_pre, h_act))
            )
        x_norm, lnf_cache = _layernorm_forward(x, p["lnf_g"], p["lnf_b"])
        patch_logits = x_norm @ p["head_w"] + p["head_b"]
        logits = unpatchify(patch_logits, c.patch, c.volume_dim)
        cache = (volume_tokens, evidence_tokens, layer_caches, x_norm, lnf_cache, zero_cross_attention)
        return logits, cache

    def backward(self, dlogits: np.ndarray, cache):
        """Gradient of every trainable param as one vector laid out like
        ``flat`` (``views`` names its parts), and of the evidence tokens."""
        c = self.cfg
        volume_tokens, evidence_tokens, layer_caches, x_norm, lnf_cache, zero_cross = cache
        p = self.params
        gflat = np.zeros_like(self.flat)
        grads = self.views(gflat)
        dpatch = patchify(dlogits, c.patch)
        grads["head_w"][...] = x_norm.T @ dpatch
        grads["head_b"][...] = dpatch.sum(axis=0)
        dx, dgf, dbf = _layernorm_backward(dpatch @ p["head_w"].T, lnf_cache)
        grads["lnf_g"][...] = dgf
        grads["lnf_b"][...] = dbf
        dt = np.zeros_like(evidence_tokens)
        for i in reversed(range(c.layers)):
            pre = f"l{i}."
            ln1_cache, sa_cache, ln2_cache, ca_cache, ln3_cache, ff_cache = layer_caches[i]

            # x_out = x + FFN(LN3(x))
            f_in, h_pre, h_act = ff_cache
            grads[pre + "ff_w2"] += h_act.T @ dx
            grads[pre + "ff_b2"] += dx.sum(axis=0)
            dh = (dx @ p[pre + "ff_w2"].T) * (h_pre > 0)
            grads[pre + "ff_w1"] += f_in.T @ dh
            grads[pre + "ff_b1"] += dh.sum(axis=0)
            df_in, dg3, db3 = _layernorm_backward(dh @ p[pre + "ff_w1"].T, ln3_cache)
            grads[pre + "ln3_g"] += dg3
            grads[pre + "ln3_b"] += db3
            dx = dx + df_in

            # x_out = x + CrossAttn(LN2(x), t)
            if not zero_cross:
                dq_in, dkv_in, att_grads = _attention_backward(
                    dx, ca_cache,
                    p[pre + "ca_wq"], p[pre + "ca_wk"], p[pre + "ca_wv"], p[pre + "ca_wo"],
                )
                for name, g in att_grads.items():
                    grads[pre + "ca_" + name] += g
                dt += dkv_in
                dc_in, dg2, db2 = _layernorm_backward(dq_in, ln2_cache)
                grads[pre + "ln2_g"] += dg2
                grads[pre + "ln2_b"] += db2
                dx = dx + dc_in

            # x_out = x + SelfAttn(LN1(x))
            dq_in, dkv_in, att_grads = _attention_backward(
                dx, sa_cache,
                p[pre + "sa_wq"], p[pre + "sa_wk"], p[pre + "sa_wv"], p[pre + "sa_wo"],
            )
            for name, g in att_grads.items():
                grads[pre + "sa_" + name] += g
            da_in, dg1, db1 = _layernorm_backward(dq_in + dkv_in, ln1_cache)
            grads[pre + "ln1_g"] += dg1
            grads[pre + "ln1_b"] += db1
            dx = dx + da_in
        return gflat, dt

    # --- checkpoints ------------------------------------------------------------

    def save(self, directory: str | Path) -> None:
        meta = {
            "kind": "segdecoder",
            "volume_dim": self.cfg.volume_dim,
            "patch": self.cfg.patch,
            "token_dim": self.cfg.token_dim,
            "layers": self.cfg.layers,
            "ffn_hidden": self.cfg.ffn_hidden,
            "seed": self.cfg.seed,
        }
        tensorio.save_params(directory, self.params, meta)

    @classmethod
    def load(cls, directory: str | Path) -> "SegDecoder":
        """Rebuild a saved decoder; its tensors must match the config's layout."""
        fields = [f.name for f in dataclasses.fields(SegDecoderConfig)]
        params, meta = tensorio.load_params(directory, fields)
        dec = cls(SegDecoderConfig(**meta))
        tensorio.copy_params(params, dec.params, directory)
        return dec


def decode_mask(
    dec: SegDecoder,
    volume_tokens: np.ndarray,
    evidence_tokens: np.ndarray,
    zero_cross_attention: bool = False,
) -> np.ndarray:
    """Voxelwise probabilities in (0, 1) for the queried evidence."""
    logits, _ = dec.forward(volume_tokens, evidence_tokens, zero_cross_attention)
    return _sigmoid(logits)


class Adam:
    """Adam (Kingma & Ba 2015) on one flat parameter vector; plain SGD
    cannot traverse the mixed gradient scales of the attention stack here.

    ``step`` updates the whole vector in place, one ufunc per operation,
    in the order ``m = b1*m + (1-b1)*g``, ``v = b2*v + ((1-b2)*g)*g``,
    ``p -= (lr*m_hat) / (sqrt(v_hat) + eps)``, so every element rounds
    exactly as the per-tensor formula does.
    """

    def __init__(self, params: np.ndarray, lr: float, b1=0.9, b2=0.999, eps=1e-8):
        self.lr, self.b1, self.b2, self.eps = lr, b1, b2, eps
        self.m = np.zeros_like(params)
        self.v = np.zeros_like(params)
        self._num = np.empty_like(params)
        self._den = np.empty_like(params)
        self.t = 0

    def step(self, params: np.ndarray, grads: np.ndarray) -> None:
        self.t += 1
        m, v, num, den = self.m, self.v, self._num, self._den
        np.multiply(m, self.b1, out=m)
        np.multiply(grads, 1 - self.b1, out=num)
        np.add(m, num, out=m)
        np.multiply(v, self.b2, out=v)
        np.multiply(grads, 1 - self.b2, out=num)
        np.multiply(num, grads, out=num)
        np.add(v, num, out=v)
        np.divide(m, 1 - self.b1**self.t, out=num)
        np.multiply(num, self.lr, out=num)
        np.divide(v, 1 - self.b2**self.t, out=den)
        np.sqrt(den, out=den)
        np.add(den, self.eps, out=den)
        np.divide(num, den, out=num)
        np.subtract(params, num, out=params)


def train_mask_decoder(
    dec: SegDecoder,
    samples: list[tuple[np.ndarray, np.ndarray, np.ndarray]],
    epochs: int,
    lr: float,
    lambda_mask: float = 1.0,
    lambda_dice: float = 1.0,
    lambda_bce: float = 1.0,
    seed: int = 0,
) -> list[float]:
    """Adam on lambda_mask * (dice + bce) over (tokens, evidence, mask) samples."""
    if lambda_mask == 0.0 or not samples:
        return []
    rng = np.random.default_rng(seed)
    opt = Adam(dec.flat, lr)
    curve = []
    for _ in range(epochs):
        order = rng.permutation(len(samples))
        total = 0.0
        for idx in order:
            tokens, ev_tokens, gt = samples[idx]
            logits, cache = dec.forward(tokens, ev_tokens)
            loss = dice_bce_loss(logits, gt, lambda_dice, lambda_bce)
            total += lambda_mask * loss.value
            grads, _ = dec.backward(lambda_mask * loss.grads["pred_logits"], cache)
            opt.step(dec.flat, grads)
        curve.append(total / len(samples))
    return curve

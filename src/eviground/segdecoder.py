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

Batch axis: ``forward`` takes ``(B, n_patches, d)`` visual tokens and
``(B, T, d)`` evidence tokens and returns ``(B, D, D, D)`` logits; a 2-D call
is a batch of one and returns one volume. Token rows of all samples are
stacked for every projection, layer norm and FFN, so weight gradients sum
over the batch; attention runs within each sample. Evidence sequences of
different lengths are zero-padded to the batch maximum (``pad_evidence``),
and ``evidence_lengths`` puts ``-inf`` on the padded score columns, so padded
tokens get zero attention and add nothing to any gradient.
``train_mask_decoder`` takes one Adam step per ``BATCH_SIZE`` (4) shuffled
samples on the batch mean of the per-sample loss.

Precision (mixed-precision training, Micikevicius et al., ICLR 2018): the
master weights ``flat``, the gradient vector and the ``Adam`` moments are
float64. ``forward`` computes in the dtype of its visual tokens. Training
stacks them as float32, so each step runs on one float32 copy of ``flat``,
and ``backward`` writes its float32 blocks into the float64 gradient.
Evaluation (``decode_mask``) and the finite-difference checks pass float64
tokens and run on a float64 copy of ``flat``.
"""

from __future__ import annotations

import dataclasses
import functools
import math
from dataclasses import dataclass
from pathlib import Path
from types import MappingProxyType

import numpy as np

from . import tensorio
from .errors import DimMismatchError, ValidationError
from .losses import LossWithGrad, _sigmoid, dice_bce_loss

_LN_EPS = 1e-5
# samples per Adam step in train_mask_decoder
BATCH_SIZE = 4


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
    """(..., D, D, D) volumes -> (..., n_patches, patch^3) rows, row-major patch grid."""
    lead = volume.shape[:-3]
    m = volume.shape[-1] // patch
    blocks = volume.reshape(*lead, m, patch, m, patch, m, patch)
    k = len(lead)
    axes = (*range(k), k, k + 2, k + 4, k + 1, k + 3, k + 5)
    return blocks.transpose(axes).reshape(*lead, m**3, patch**3)


def unpatchify(rows: np.ndarray, patch: int, volume_dim: int) -> np.ndarray:
    """Inverse of ``patchify``: (..., n_patches, patch^3) -> (..., D, D, D)."""
    lead = rows.shape[:-2]
    m = volume_dim // patch
    blocks = rows.reshape(*lead, m, m, m, patch, patch, patch)
    k = len(lead)
    axes = (*range(k), k, k + 3, k + 1, k + 4, k + 2, k + 5)
    return blocks.transpose(axes).reshape(*lead, volume_dim, volume_dim, volume_dim)


def pad_evidence(sequences: list[np.ndarray]) -> tuple[np.ndarray, np.ndarray]:
    """Stack (T_i, d) evidence token sequences into a zero-padded (B, T_max, d)
    batch plus the (B,) lengths that ``SegDecoder.forward`` masks with."""
    lengths = np.array([len(seq) for seq in sequences])
    batch = np.zeros((len(sequences), lengths.max(), sequences[0].shape[1]))
    for row, seq in zip(batch, sequences):
        row[: len(seq)] = seq
    return batch, lengths


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


# Row and column sums are products with a ones vector: one BLAS call takes
# about 2 us on the decoder's (256, 32) rows where ``ufunc.reduce`` takes 7-10.


@functools.lru_cache(maxsize=64)
def _ones(n: int, dtype: np.dtype) -> np.ndarray:
    ones = np.ones(n, dtype)
    ones.setflags(write=False)
    return ones


def _row_sums(a: np.ndarray) -> np.ndarray:
    """Sums over the last axis, kept as a trailing axis of one."""
    return (a @ _ones(a.shape[-1], a.dtype))[..., None]


def _col_sums(a: np.ndarray) -> np.ndarray:
    """Sums of a 2-D array over its rows."""
    return _ones(a.shape[0], a.dtype) @ a


# The kernels below update their fresh temporaries in place; a batch of one
# runs the same operations on the same shapes as the single-sample formulas,
# so it rounds exactly as they do.


def _layernorm_forward(x, gamma, beta):
    d = x.shape[-1]
    xhat = x - _row_sums(x) / d
    inv = 1.0 / np.sqrt(_row_sums(xhat * xhat) / d + _LN_EPS)
    xhat *= inv
    y = xhat * gamma
    y += beta
    return y, (xhat, inv, gamma)


def _layernorm_backward(dy, cache):
    xhat, inv, gamma = cache
    dgamma = _col_sums(dy * xhat)
    dbeta = _col_sums(dy)
    dxhat = dy * gamma
    d = dxhat.shape[-1]
    # dx = inv * (dxhat - mean(dxhat) - xhat * mean(dxhat * xhat))
    dx = dxhat - _row_sums(dxhat) / d
    dx -= xhat * (_row_sums(dxhat * xhat) / d)
    dx *= inv
    return dx, dgamma, dbeta


def _attention_forward(q_in, kv_in, wq, wk, wv, wo, batch, bias=None):
    """Attention within each of ``batch`` samples whose query and key rows are
    stacked in ``q_in`` and ``kv_in``; ``bias`` (batch, 1, keys) holds -inf on
    padded key columns, or is None when no column is padded."""
    d = q_in.shape[1]
    scale = 1.0 / math.sqrt(d)  # a Python float keeps float32 products in float32
    q = (q_in @ wq).reshape(batch, -1, d)
    k = (kv_in @ wk).reshape(batch, -1, d)
    v = (kv_in @ wv).reshape(batch, -1, d)
    att = q @ k.transpose(0, 2, 1)
    att *= scale
    if bias is not None:
        att += bias
    att -= att.max(axis=-1, keepdims=True)
    np.exp(att, out=att)
    att /= _row_sums(att)
    ctx = (att @ v).reshape(-1, d)
    out = ctx @ wo
    cache = (q_in, kv_in, q, k, v, att, ctx, scale)
    return out, cache


def _attention_backward(dout, cache, wq, wk, wv, wo, self_attention):
    """Gradients of the query input and of the four weights. In
    self-attention the keys and values read the query input too, so their
    path adds into its gradient; cross-attention's evidence tokens get none."""
    q_in, kv_in, q, k, v, att, ctx, scale = cache
    batch, _, d = q.shape
    dwo = ctx.T @ dout
    dctx = (dout @ wo.T).reshape(batch, -1, d)
    datt = dctx @ v.transpose(0, 2, 1)
    dv = (att.transpose(0, 2, 1) @ dctx).reshape(-1, d)
    # softmax backward, att * (datt - sum(datt * att)), built in datt's buffer
    dscores = datt
    dscores -= _row_sums(datt * att)
    dscores *= att
    dq = (dscores @ k).reshape(-1, d)
    dq *= scale
    dk = (dscores.transpose(0, 2, 1) @ q).reshape(-1, d)
    dk *= scale
    dq_in = dq @ wq.T
    if self_attention:
        dq_in += dk @ wk.T + dv @ wv.T
    grads = {
        "wq": q_in.T @ dq,
        "wk": kv_in.T @ dk,
        "wv": kv_in.T @ dv,
        "wo": dwo,
    }
    return dq_in, grads


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
        evidence_lengths: np.ndarray | None = None,
    ):
        """Per-voxel logits plus the cache for backward.

        ``volume_tokens`` (B, n_patches, d) and ``evidence_tokens`` (B, T, d)
        give (B, D, D, D) logits; 2-D tokens are a batch of one and give one
        (D, D, D) volume. ``evidence_lengths`` (B,) marks evidence rows past
        each sample's length as padding (default: none is padded).

        Everything is computed in ``volume_tokens.dtype``, on one copy of
        ``flat`` in that dtype, and the evidence tokens are cast to match."""
        c = self.cfg
        single = volume_tokens.ndim == 2
        if volume_tokens.ndim not in (2, 3) or volume_tokens.shape[-2:] != (
            c.n_patches, c.token_dim
        ):
            raise DimMismatchError(f"bad visual token shape {volume_tokens.shape}")
        if evidence_tokens.ndim != volume_tokens.ndim or evidence_tokens.shape[-1] != c.token_dim:
            raise DimMismatchError(f"bad evidence token shape {evidence_tokens.shape}")
        if evidence_tokens.shape[-2] == 0:
            raise ValidationError("evidence token sequence is empty")
        if single:
            volume_tokens, evidence_tokens = volume_tokens[None], evidence_tokens[None]
        batch, n_ev = evidence_tokens.shape[:2]
        if volume_tokens.shape[0] != batch:
            raise DimMismatchError(
                f"{volume_tokens.shape[0]} visual token sets for {batch} evidence sequences"
            )
        dtype = volume_tokens.dtype
        bias = None
        if evidence_lengths is not None:
            lengths = np.asarray(evidence_lengths)
            if lengths.shape != (batch,) or lengths.min() < 1 or lengths.max() > n_ev:
                raise ValidationError(f"evidence lengths {lengths} do not fit {n_ev} token rows")
            if lengths.min() < n_ev:
                padded = np.arange(n_ev) >= lengths[:, None]
                bias = np.where(padded, -np.inf, 0.0).astype(dtype, copy=False)[:, None, :]
        # copies only: a backward from the cache ignores later in-place edits
        x = volume_tokens.reshape(-1, c.token_dim).copy()  # the residual stream, updated in place
        t = evidence_tokens.reshape(-1, c.token_dim).astype(dtype)
        p = self.views(self.flat.astype(dtype))
        layer_caches = []
        for i in range(c.layers):
            pre = f"l{i}."
            a_in, ln1_cache = _layernorm_forward(x, p[pre + "ln1_g"], p[pre + "ln1_b"])
            sa_out, sa_cache = _attention_forward(
                a_in, a_in, p[pre + "sa_wq"], p[pre + "sa_wk"], p[pre + "sa_wv"], p[pre + "sa_wo"],
                batch,
            )
            x += sa_out
            c_in, ln2_cache = _layernorm_forward(x, p[pre + "ln2_g"], p[pre + "ln2_b"])
            ca_out, ca_cache = _attention_forward(
                c_in, t, p[pre + "ca_wq"], p[pre + "ca_wk"], p[pre + "ca_wv"], p[pre + "ca_wo"],
                batch, bias,
            )
            if not zero_cross_attention:
                x += ca_out
            f_in, ln3_cache = _layernorm_forward(x, p[pre + "ln3_g"], p[pre + "ln3_b"])
            h_pre = f_in @ p[pre + "ff_w1"]
            h_pre += p[pre + "ff_b1"]
            h_act = np.maximum(h_pre, 0.0, out=h_pre)
            ff_out = h_act @ p[pre + "ff_w2"]
            ff_out += p[pre + "ff_b2"]
            x += ff_out
            layer_caches.append(
                (ln1_cache, sa_cache, ln2_cache, ca_cache, ln3_cache, (f_in, h_act))
            )
        x_norm, lnf_cache = _layernorm_forward(x, p["lnf_g"], p["lnf_b"])
        patch_logits = (x_norm @ p["head_w"] + p["head_b"]).reshape(batch, c.n_patches, -1)
        logits = unpatchify(patch_logits, c.patch, c.volume_dim)
        cache = (layer_caches, x_norm, lnf_cache, zero_cross_attention, p)
        return (logits[0] if single else logits), cache

    def backward(self, dlogits: np.ndarray, cache):
        """Gradient of every trainable param, summed over the batch, as one
        float64 vector laid out like ``flat`` (``views`` names its parts).
        It is computed in the dtype of the forward that made ``cache``;
        ``dlogits`` is cast to it once."""
        c = self.cfg
        layer_caches, x_norm, lnf_cache, zero_cross, p = cache
        gflat = np.zeros_like(self.flat)
        grads = self.views(gflat)
        dlogits = dlogits.astype(x_norm.dtype, copy=False)
        dpatch = patchify(dlogits, c.patch).reshape(-1, c.patch_voxels)
        grads["head_w"][...] = x_norm.T @ dpatch
        grads["head_b"][...] = _col_sums(dpatch)
        dx, dgf, dbf = _layernorm_backward(dpatch @ p["head_w"].T, lnf_cache)
        grads["lnf_g"][...] = dgf
        grads["lnf_b"][...] = dbf
        for i in reversed(range(c.layers)):
            pre = f"l{i}."
            ln1_cache, sa_cache, ln2_cache, ca_cache, ln3_cache, ff_cache = layer_caches[i]

            # x_out = x + FFN(LN3(x))
            f_in, h_act = ff_cache
            grads[pre + "ff_w2"] += h_act.T @ dx
            grads[pre + "ff_b2"] += _col_sums(dx)
            dh = dx @ p[pre + "ff_w2"].T
            dh *= h_act > 0  # ReLU passes where its input was positive
            grads[pre + "ff_w1"] += f_in.T @ dh
            grads[pre + "ff_b1"] += _col_sums(dh)
            df_in, dg3, db3 = _layernorm_backward(dh @ p[pre + "ff_w1"].T, ln3_cache)
            grads[pre + "ln3_g"] += dg3
            grads[pre + "ln3_b"] += db3
            dx += df_in

            # x_out = x + CrossAttn(LN2(x), t)
            if not zero_cross:
                dq_in, att_grads = _attention_backward(
                    dx, ca_cache,
                    p[pre + "ca_wq"], p[pre + "ca_wk"], p[pre + "ca_wv"], p[pre + "ca_wo"],
                    self_attention=False,
                )
                for name, g in att_grads.items():
                    grads[pre + "ca_" + name] += g
                dc_in, dg2, db2 = _layernorm_backward(dq_in, ln2_cache)
                grads[pre + "ln2_g"] += dg2
                grads[pre + "ln2_b"] += db2
                dx += dc_in

            # x_out = x + SelfAttn(LN1(x))
            dq_in, att_grads = _attention_backward(
                dx, sa_cache,
                p[pre + "sa_wq"], p[pre + "sa_wk"], p[pre + "sa_wv"], p[pre + "sa_wo"],
                self_attention=True,
            )
            for name, g in att_grads.items():
                grads[pre + "sa_" + name] += g
            da_in, dg1, db1 = _layernorm_backward(dq_in, ln1_cache)
            grads[pre + "ln1_g"] += dg1
            grads[pre + "ln1_b"] += db1
            dx += da_in
        return gflat

    def loss(self, tokens, evidence, gt, lambda_dice, lambda_bce, evidence_lengths=None):
        """The training objective: ``dice_bce_loss`` of ``forward``'s logits
        against ``gt``, a ``LossWithGrad`` whose ``grads["flat"]`` is laid out
        like ``flat``. The forward cache is freed once the gradient is built."""
        logits, cache = self.forward(tokens, evidence, evidence_lengths=evidence_lengths)
        mask_loss = dice_bce_loss(logits, gt, lambda_dice, lambda_bce)
        return LossWithGrad(
            mask_loss.value,
            lambda: {"flat": self.backward(mask_loss.grads["pred_logits"], cache)},
        )

    # --- checkpoints ------------------------------------------------------------

    def save(self, directory: str | Path) -> None:
        meta = {"kind": "segdecoder", **dataclasses.asdict(self.cfg)}
        tensorio.save_params(directory, self.params, meta)

    @classmethod
    def load(cls, directory: str | Path) -> "SegDecoder":
        """Rebuild a saved decoder; its tensors must match the config's layout."""
        params, meta = tensorio.load_params(directory, [f.name for f in dataclasses.fields(SegDecoderConfig)])
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
    lambda_dice: float = 1.0,
    lambda_bce: float = 1.0,
    seed: int = 0,
    batch_size: int = BATCH_SIZE,
) -> list[dict]:
    """Adam on ``SegDecoder.loss`` over (tokens, evidence, mask) samples.

    Each epoch shuffles the samples and takes one Adam step per
    ``batch_size`` of them (the last batch may be short), ceil(n / batch_size)
    steps in all, on the batch mean of the per-sample loss. A batch's
    evidence sequences are zero-padded to its longest and masked; its masks
    (bool or float 0/1) are cast to float64 only when it is built. Forward
    and backward run in float32 on float32 tokens; ``dec.flat``, the Adam
    moments and the gradient stay float64. Returns one row per epoch:
    ``l_mask``, the mean sample loss, and ``g_mask``, the mean L2 norm of
    the flat gradient over the epoch's steps.
    """
    if batch_size < 1:
        raise ValidationError("batch_size must be at least 1")
    if not samples:
        return []
    _raise_heap_trim_threshold()
    rng = np.random.default_rng(seed)
    opt = Adam(dec.flat, lr)
    steps = range(0, len(samples), batch_size)
    rows = []
    for _ in range(epochs):
        order = rng.permutation(len(samples))
        total = grad_norms = 0.0
        for start in steps:
            batch = [samples[i] for i in order[start : start + batch_size]]
            loss, grad_norm = _train_step(dec, opt, batch, lambda_dice, lambda_bce)
            total += loss
            grad_norms += grad_norm
        rows.append({"l_mask": total / len(samples), "g_mask": grad_norms / len(steps)})
    return rows


def _raise_heap_trim_threshold() -> None:
    """Allocate and free one 8 MiB block, which glibc's malloc serves by mmap.

    Freeing it raises glibc's dynamic mmap threshold to 8 MiB and its heap
    trim threshold to 16 MiB. Each float32 training step at the default
    config allocates and frees about 4 MB of forward cache and temporaries
    (tracemalloc peak of one step); below that threshold glibc hands the
    freed top of the heap back to the kernel after every step and faults it
    in again on the next, which costs about 167k minor page faults, 0.3 s of
    system time and 0.45 s of wall time per 10-epoch ``train-sea`` on the
    default cohort (2.8k faults with this call). The block is never written,
    so it adds nothing to the resident set; other allocators just serve and
    free it."""
    np.empty(8 << 20, dtype=np.uint8)


def _train_step(dec, opt, batch, lambda_dice, lambda_bce) -> tuple[float, float]:
    """One Adam step on one batch, computed in float32; returns the batch's
    summed sample loss and the L2 norm of its flat gradient. The forward
    cache lives in the loss, so it is freed before the next batch's forward."""
    tokens = np.stack([sample[0] for sample in batch], dtype=np.float32)
    evidence, lengths = pad_evidence([sample[1] for sample in batch])
    gt = np.stack([sample[2] for sample in batch]).astype(np.float64)
    loss = dec.loss(tokens, evidence, gt, lambda_dice, lambda_bce, lengths)
    grads = loss.grads["flat"]
    opt.step(dec.flat, grads)
    # a ufunc reduction sums in the same order whatever the BLAS thread count
    return loss.value * len(batch), math.sqrt(np.add.reduce(grads * grads))

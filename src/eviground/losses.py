"""Elementary differentiable losses with analytic gradients.

Every loss that trains something returns a :class:`LossWithGrad` whose
``grads`` map is keyed by parameter name. A loss computes its value when
called and builds its gradients on the first read of ``grads``, so a
caller that needs only values (finite differences) never pays for them.
The backward that builds them reads only arrays its own loss call
allocated: what it needs from a caller-owned input is taken or copied at
call time, because the caller may change that input in place afterwards.
Backward passes are derived by hand; :func:`finite_difference_check` is
the one oracle that verifies them and the objectives the trainers apply
(``SegDecoder.loss``, ``distill.student_loss``). All arithmetic is double
precision.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from .errors import DimMismatchError, IndexOutOfRangeError
from .tensorio import assert_same_shape

PROB_FLOOR = 1e-9
DICE_SMOOTHING = 1e-5


class LossWithGrad:
    """Scalar loss value plus gradients keyed by parameter name.

    ``backward`` takes no argument and returns the gradients; it runs on the
    first read of ``grads``, whose dict is then cached. It must read only
    arrays that its own loss call allocated: a caller may change its inputs
    in place after the call (finite differences perturb them), so a loss
    takes what its backward needs from a caller-owned input at call time,
    or copies it (``dice_bce_loss`` copies ``gt``, ``token_nll`` its targets,
    ``itc_loss`` both feature batches and ``distill_loss`` the teacher row).
    """

    __slots__ = ("value", "_backward", "_grads")

    def __init__(self, value: float, backward: Callable[[], dict[str, np.ndarray]]):
        self.value = value
        self._backward = backward
        self._grads = None

    @property
    def grads(self) -> dict[str, np.ndarray]:
        if self._grads is None:
            self._grads = self._backward()
            self._backward = None  # frees the arrays it closed over
        return self._grads


def softmax(logits: np.ndarray, temperature: float = 1.0) -> np.ndarray:
    """Temperature-scaled softmax, stable under max-subtraction."""
    if temperature <= 0:
        raise ValueError("temperature must be positive")
    z = np.asarray(logits, dtype=np.float64) / temperature
    z = z - z.max(axis=-1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=-1, keepdims=True)


def kl_divergence(q: np.ndarray, p: np.ndarray) -> float:
    """KL(q || p) with p floored at 1e-9 and the 0*log(0) = 0 convention."""
    q = np.asarray(q, dtype=np.float64)
    p = np.asarray(p, dtype=np.float64)
    if q.shape != p.shape:
        raise DimMismatchError(f"distribution lengths differ: {q.shape} vs {p.shape}")
    p = np.maximum(p, PROB_FLOOR)
    terms = np.where(q > 0, q * (np.log(np.maximum(q, PROB_FLOOR)) - np.log(p)), 0.0)
    return float(terms.sum())


def token_nll(probs: np.ndarray, targets: np.ndarray) -> LossWithGrad:
    """Mean negative log-likelihood of target tokens over steps.

    ``probs`` is (steps, vocab) per-step probability vectors; gradient is
    with respect to the probability entries.
    """
    probs = np.asarray(probs, dtype=np.float64)
    targets = np.array(targets, dtype=np.int64)  # a copy, read by the backward
    if probs.ndim != 2 or targets.ndim != 1 or probs.shape[0] != targets.shape[0]:
        raise DimMismatchError("probs must be (steps, vocab) with one target per step")
    steps, vocab = probs.shape
    if np.any(targets < 0) or np.any(targets >= vocab):
        raise IndexOutOfRangeError("target index outside vocabulary")
    target_probs = probs[np.arange(steps), targets]
    picked = np.maximum(target_probs, PROB_FLOOR)
    value = float(-np.mean(np.log(picked)))

    def backward():
        grad = np.zeros((steps, vocab))
        # d/dp of -log(max(p, floor)) is 0 below the floor
        active = target_probs > PROB_FLOOR
        grad[np.arange(steps), targets] = np.where(active, -1.0 / (picked * steps), 0.0)
        return {"probs": grad}

    return LossWithGrad(value, backward)


def mse_loss(x: np.ndarray, x_hat: np.ndarray) -> LossWithGrad:
    """Mean squared error; gradient is with respect to the reconstruction."""
    x = np.asarray(x, dtype=np.float64)
    x_hat = np.asarray(x_hat, dtype=np.float64)
    assert_same_shape(x, x_hat)
    diff = x_hat - x
    value = float(np.mean(diff * diff))
    return LossWithGrad(value, lambda: {"x_hat": 2.0 * diff / diff.size})


def dice_score(pred: np.ndarray, gt: np.ndarray) -> float:
    """Soft Dice overlap (2*sum(p*g)+s) / (sum(p^2)+sum(g^2)+s)."""
    pred = np.asarray(pred, dtype=np.float64)
    gt = np.asarray(gt, dtype=np.float64)
    assert_same_shape(pred, gt)
    num = 2.0 * float(np.sum(pred * gt)) + DICE_SMOOTHING
    den = float(np.sum(pred * pred) + np.sum(gt * gt)) + DICE_SMOOTHING
    return num / den


def _sigmoid(z: np.ndarray) -> np.ndarray:
    """Stable logistic: 1/(1+e) for z >= 0 and e/(1+e) below, e = exp(-|z|)."""
    e = np.abs(z)
    np.negative(e, out=e)
    np.exp(e, out=e)
    # the numerator is 1 where z >= 0 (e <= 1 there) and e elsewhere
    out = np.maximum(e, z >= 0)
    e += 1.0
    out /= e
    return out


def dice_bce_loss(
    pred_logits: np.ndarray,
    gt: np.ndarray,
    lambda_dice: float = 1.0,
    lambda_bce: float = 1.0,
) -> LossWithGrad:
    """lambda_dice*(1 - Dice) + lambda_bce*BCE with analytic logit gradient.

    ``pred_logits`` and ``gt`` are one (D, D, D) volume or a (B, D, D, D)
    batch; the value is the batch mean of the per-volume losses. Per-volume
    sums run over one contiguous row each, so they round as ``np.sum`` and
    ``np.mean`` of that volume do, and a (D, D, D) call is a batch of one.
    """
    if lambda_dice < 0 or lambda_bce < 0:
        raise ValueError("loss weights must be nonnegative")
    z = np.asarray(pred_logits, dtype=np.float64)
    g = np.array(gt, dtype=np.float64)  # a copy, read by the backward
    assert_same_shape(z, g)
    if z.ndim not in (3, 4):
        raise DimMismatchError(f"expected (D, D, D) or (B, D, D, D) logits, got {z.shape}")
    batch = z.shape[0] if z.ndim == 4 else 1
    p = _sigmoid(z).reshape(batch, -1)
    g = g.reshape(batch, -1)
    n = p.shape[1]

    num = 2.0 * (p * g).sum(axis=1, keepdims=True) + DICE_SMOOTHING
    den = ((p * p).sum(axis=1, keepdims=True) + (g * g).sum(axis=1, keepdims=True)) + DICE_SMOOTHING
    dice = num / den

    pc = np.clip(p, PROB_FLOOR, 1.0 - PROB_FLOOR)
    qc = 1.0 - pc
    bce = -((g * np.log(pc) + (1.0 - g) * np.log(qc)).sum(axis=1, keepdims=True) / n)

    values = lambda_dice * (1.0 - dice) + lambda_bce * bce
    shape = z.shape

    def backward():
        # d(dice)/dp = (2g*den - 2p*num) / den^2, and dp/dz = p(1-p)
        ddice_dp = (2.0 * g * den - 2.0 * p * num) / (den * den)
        dbce_dp = (pc - g) / (pc * qc * n)
        dvalue_dp = -lambda_dice * ddice_dp + lambda_bce * dbce_dp
        grad = dvalue_dp * p * (1.0 - p) / batch
        return {"pred_logits": grad.reshape(shape)}

    return LossWithGrad(float(values.sum() / batch), backward)


def finite_difference_check(
    f: Callable[[np.ndarray], float],
    x: np.ndarray,
    analytic_grad: np.ndarray,
) -> float:
    """Worst error between central differences and the analytic gradient.

    Each entry of ``x`` is moved by +/-h in place and restored, so ``x`` may
    be a model's parameter vector. The error is relative to the central
    difference (a gradient scaled by 2x reports about 1). Where both are
    below 1e-6, near the ~1e-10 noise of h=1e-5 on O(1) functions, an entry
    must agree within 1e-8 absolute instead, or it reports 1.0.
    """
    h = 1e-5  # one step for every check; check_grpo's margin depends on it
    x = np.asarray(x, dtype=np.float64)
    analytic_grad = np.asarray(analytic_grad, dtype=np.float64)
    assert_same_shape(x, analytic_grad)
    worst = 0.0
    flat = x.reshape(-1)
    gflat = analytic_grad.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + h
        fp = f(x)
        flat[i] = orig - h
        fm = f(x)
        flat[i] = orig
        fd = (fp - fm) / (2.0 * h)
        diff = abs(fd - gflat[i])
        if max(abs(fd), abs(gflat[i])) >= 1e-6:
            worst = max(worst, diff / max(1e-8, abs(fd)))
        elif diff > 1e-8:
            worst = max(worst, 1.0)
    return worst

"""Finite-difference verification suites for every loss with gradients.

Each suite draws small random instances and reports the worst error
between analytic gradients and central differences, measured by the one
oracle, :func:`losses.finite_difference_check` (relative error, with
entries below 1e-6 checked absolutely). Used by the `gradcheck` CLI
subcommand and the acceptance tests.
"""

from __future__ import annotations

import numpy as np

from . import distill, grounding, losses, policy, pretrain
from .records import EvidenceItem

TOLERANCE = 1e-4

_WORDS = (
    "memory recall atrophy tau amyloid volume executive language spatial "
    "elevated reduced normal impairment hippocampal cortex score level"
).split()


def _random_texts(rng, n: int) -> list[str]:
    return [" ".join(rng.choice(_WORDS, size=rng.integers(2, 6))) for _ in range(n)]


def check_mse(seed: int) -> float:
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(2, 3))
    x_hat = rng.normal(size=(2, 3))
    lw = losses.mse_loss(x, x_hat)
    return losses.finite_difference_check(
        lambda z: losses.mse_loss(x, z).value, x_hat.copy(), lw.grads["x_hat"]
    )


def check_token_nll(seed: int) -> float:
    rng = np.random.default_rng(seed)
    probs = rng.uniform(0.05, 1.0, size=(3, 5))
    probs /= probs.sum(axis=1, keepdims=True)
    targets = rng.integers(0, 5, size=3)
    lw = losses.token_nll(probs, targets)
    return losses.finite_difference_check(
        lambda p: losses.token_nll(p, targets).value, probs.copy(), lw.grads["probs"]
    )


def check_dice_bce(seed: int) -> float:
    rng = np.random.default_rng(seed)
    logits = rng.normal(0, 1.5, size=(4, 4, 4))
    gt = (rng.random((4, 4, 4)) > 0.6).astype(np.float64)
    lw = losses.dice_bce_loss(logits, gt, 1.0, 1.0)
    return losses.finite_difference_check(
        lambda z: losses.dice_bce_loss(z, gt, 1.0, 1.0).value,
        logits.copy(),
        lw.grads["pred_logits"],
    )


def check_distill(seed: int) -> float:
    rng = np.random.default_rng(seed)
    teacher_p = losses.softmax(rng.normal(size=6), temperature=2.0)
    student_logits = rng.normal(size=6)
    lw = distill.distill_loss(teacher_p, student_logits, 2.0)
    return losses.finite_difference_check(
        lambda z: distill.distill_loss(teacher_p, z, 2.0).value,
        student_logits.copy(),
        lw.grads["student_logits"],
    )


def check_itc(seed: int) -> float:
    rng = np.random.default_rng(seed)
    b, d = 3, 4
    f_i = rng.normal(size=(b, d))
    f_i /= np.linalg.norm(f_i, axis=1, keepdims=True)
    f_t = rng.normal(size=(b, d))
    f_t /= np.linalg.norm(f_t, axis=1, keepdims=True)
    lw = pretrain.itc_loss(f_i, f_t, tau=0.5)
    err_i = losses.finite_difference_check(
        lambda x: pretrain.itc_loss(x, f_t, tau=0.5).value, f_i.copy(), lw.grads["img_feats"]
    )
    err_t = losses.finite_difference_check(
        lambda x: pretrain.itc_loss(f_i, x, tau=0.5).value, f_t.copy(), lw.grads["txt_feats"]
    )
    return max(err_i, err_t)


def check_infonce(seed: int) -> float:
    from .textenc import Embedder

    rng = np.random.default_rng(seed)
    emb = Embedder(vocab_hash_dim=16, base_dim=8, embed_dim=4, seed=seed)
    n_s, n_e = 3, 4
    sentences = _random_texts(rng, n_s)
    evidences = [
        EvidenceItem(f"e{j}", t, "field", "lab") for j, t in enumerate(_random_texts(rng, n_e))
    ]
    pairs = {(i, i) for i in range(min(n_s, n_e))}
    pairs.add((0, n_e - 1))
    pairs.add((n_s - 1, n_e - 1))
    batch = grounding.GroundingBatch(sentences, evidences, pairs)
    lw = grounding.multi_positive_infonce(batch, emb, tau=0.5)

    # every entry of emb.flat is perturbed in place
    return losses.finite_difference_check(
        lambda _: grounding.multi_positive_infonce(batch, emb, tau=0.5).value,
        emb.flat,
        lw.grads["flat"],
    )


def check_grpo(seed: int) -> float:
    rng = np.random.default_rng(seed)
    pol = policy.ReportPolicy()
    ref = policy.ReportPolicy()
    for params in (pol.params, ref.params):
        for view in params.values():
            view[...] = rng.normal(0, 0.3, view.shape)
    features = rng.normal(size=policy.FEATURE_DIM)
    group = policy.SampleGroup("synthetic", features)
    for _ in range(4):
        choices = {name: int(rng.integers(len(opts))) for name, opts in pol.slots}
        new_lp = pol.log_prob(choices, features)
        # keep rho clear of the clip kinks at 1 +/- epsilon, where the
        # objective is genuinely non-differentiable and FD is meaningless
        while True:
            delta = rng.normal(0, 0.15)
            rho = np.exp(delta)
            if min(abs(rho - 0.8), abs(rho - 1.2)) > 0.02:
                break
        rollout = policy.Rollout(choices, "", new_lp - delta)
        rollout.advantage = float(rng.normal())
        group.rollouts.append(rollout)
    # the reference is frozen: its probabilities are computed once per seed
    ref_probs = ref.probs(features)
    lw = policy.grpo_loss(group, pol, ref_probs, epsilon=0.2, beta=0.1)

    # every entry of pol.flat is perturbed in place: 1 + 2 * 731 loss calls
    return losses.finite_difference_check(
        lambda _: policy.grpo_loss(group, pol, ref_probs, epsilon=0.2, beta=0.1).value,
        pol.flat,
        lw.grads["flat"],
    )


SUITES = {
    "multi_positive_infonce": check_infonce,
    "dice_bce_loss": check_dice_bce,
    "distill_loss": check_distill,
    "itc_loss": check_itc,
    "token_nll": check_token_nll,
    "mse_loss": check_mse,
    "grpo_loss": check_grpo,
}


def run_all(n_seeds: int = 50, base_seed: int = 0) -> dict[str, float]:
    """Worst relative error per loss across n_seeds random instances."""
    return {
        name: max(fn(base_seed + s) for s in range(n_seeds)) for name, fn in SUITES.items()
    }

"""Gradients built on first read of ``LossWithGrad.grads``.

A loss computes its value at call time and its gradients only when
``grads`` is read, from arrays its own call allocated. So changing the
caller's inputs in place between the call and the read must not change
the gradients, and a finite-difference check, which reads only values,
must build one gradient per instance.
"""

import numpy as np
import pytest

from eviground import distill, gradcheck, grounding, losses, policy, pretrain, segdecoder
from eviground.textenc import Embedder


def _mse(rng):
    x, x_hat = rng.normal(size=(2, 3)), rng.normal(size=(2, 3))
    return lambda: (losses.mse_loss(x, x_hat),), [x, x_hat]


def _token_nll(rng):
    probs = rng.uniform(0.05, 1.0, size=(3, 5))
    probs /= probs.sum(axis=1, keepdims=True)
    probs[1, 0] = 1e-12  # one target below PROB_FLOOR, whose gradient is 0
    targets = np.array([2, 0, 4])
    return lambda: (losses.token_nll(probs, targets),), [probs, targets]


def _dice_bce(rng):
    logits = rng.normal(0, 1.5, size=(2, 4, 4, 4))
    gt = (rng.random((2, 4, 4, 4)) > 0.6).astype(np.float64)
    return lambda: (losses.dice_bce_loss(logits, gt, 0.7, 1.3),), [logits, gt]


def _distill(rng):
    q = losses.softmax(rng.normal(size=(3, 5)), temperature=2.0)
    q[0, 1] = 0.0  # a zero teacher entry, outside the active set
    z = rng.normal(size=(3, 5))
    return lambda: (distill.distill_loss(q, z, 2.0),), [q, z]


def _itc(rng):
    f_i = rng.normal(size=(3, 4))
    f_t = rng.normal(size=(3, 4))
    return lambda: (pretrain.itc_loss(f_i, f_t, tau=0.5),), [f_i, f_t]


def _reconstruction(rng):
    x_v, x_v_hat = rng.normal(size=(3, 6)), rng.normal(size=(3, 6))
    targets = [np.array([1, 4]), np.array([0]), np.array([3, 3, 2])]
    logits = rng.normal(size=(3, 5))
    call = lambda: pretrain.reconstruction_losses(x_v, x_v_hat, targets, logits)  # noqa: E731
    return call, [x_v, x_v_hat, logits, *targets]


def _infonce(rng):
    emb = Embedder(vocab_hash_dim=16, base_dim=8, embed_dim=4, seed=int(rng.integers(100)))
    feat_s = emb.features_of_texts(["memory recall", "tau elevated", "volume reduced"])
    feat_e = emb.features_of_texts(["recall score", "tau level", "amyloid", "volume"])
    pos = np.zeros((3, 4), dtype=bool)
    pos[[0, 1, 2, 2], [0, 1, 3, 2]] = True
    call = lambda: (grounding.infonce_from_features(feat_s, feat_e, pos, emb, 0.5),)  # noqa: E731
    return call, [feat_s, feat_e, pos, emb.flat]


def _grpo(rng):
    pol = policy.ReportPolicy()
    pol.flat[...] = rng.normal(0, 0.3, pol.flat.shape)
    features = rng.normal(size=policy.FEATURE_DIM)
    group = policy.SampleGroup("synthetic", features)
    for choices, logprob in pol.sample(features, rng, 4):
        rollout = policy.Rollout(choices, "", logprob + rng.normal(0, 0.1))
        rollout.advantage = float(rng.normal())
        group.rollouts.append(rollout)
    ref_probs = losses.softmax(rng.normal(size=policy.N_CHOICES))
    call = lambda: (policy.grpo_loss(group, pol, ref_probs, 0.2, beta=0.1),)  # noqa: E731
    return call, [features, ref_probs, pol.flat, *(r.chosen for r in group.rollouts)]


def _decoder(rng):
    """Float64 tokens: the gradient must not see later edits to ``dec.flat``
    or to the evidence, which a float64 forward need not cast."""
    cfg = segdecoder.SegDecoderConfig(volume_dim=4, patch=2, token_dim=6, layers=2, ffn_hidden=10)
    dec = segdecoder.SegDecoder(cfg)
    dec.flat[...] = rng.normal(0, 0.3, dec.flat.shape)
    tokens = np.stack([dec.volume_to_tokens(rng.normal(size=(4, 4, 4))) for _ in range(2)])
    evidence, lengths = segdecoder.pad_evidence([rng.normal(size=(3, 6)), rng.normal(size=(5, 6))])
    gt = (rng.random((2, 4, 4, 4)) > 0.5).astype(np.float64)
    call = lambda: (dec.loss(tokens, evidence, gt, 0.7, 1.3, lengths),)  # noqa: E731
    return call, [tokens, evidence, gt, dec.flat]


def _student(rng):
    student = Embedder(vocab_hash_dim=16, base_dim=8, embed_dim=4, seed=int(rng.integers(100)))
    feat_s = student.features_of_texts(["memory recall", "tau elevated", "volume reduced"])
    feat_e = student.features_of_texts(["recall score", "tau level", "amyloid", "volume"])
    q = losses.softmax(rng.normal(size=(3, 4)), temperature=2.0)
    call = lambda: (distill.student_loss(student, feat_s, feat_e, q, 0.07, 2.0),)  # noqa: E731
    return call, [feat_s, feat_e, q, student.flat]


CASES = {
    "mse_loss": _mse,
    "token_nll": _token_nll,
    "dice_bce_loss": _dice_bce,
    "distill_loss": _distill,
    "itc_loss": _itc,
    "reconstruction_losses": _reconstruction,
    "infonce_from_features": _infonce,
    "grpo_loss": _grpo,
    "SegDecoder.loss": _decoder,
    "student_loss": _student,
}


def _change_in_place(a: np.ndarray) -> None:
    if a.dtype == bool:
        np.logical_not(a, out=a)
    elif np.issubdtype(a.dtype, np.integer):
        a += 1
    else:
        a *= -3.0
        a += 0.5


@pytest.mark.parametrize("name", list(CASES))
def test_grads_ignore_inputs_changed_after_the_call(name):
    call, inputs = CASES[name](np.random.default_rng(7))
    lazy = call()
    for a in inputs:
        _change_in_place(a)
    fresh_call, _ = CASES[name](np.random.default_rng(7))
    for got, want in zip(lazy, fresh_call(), strict=True):
        assert got.grads.keys() == want.grads.keys()
        for key in want.grads:
            assert np.array_equal(got.grads[key], want.grads[key]), f"{name}: {key}"


def test_grads_built_once_and_cached():
    runs = []

    def backward():
        runs.append(1)
        return {"x": np.ones(3)}

    lw = losses.LossWithGrad(2.0, backward)
    assert runs == []
    first = lw.grads
    assert lw.grads is first and runs == [1]

    real = losses.mse_loss(np.zeros(3), np.ones(3))
    assert real.grads is real.grads


def test_check_grpo_builds_one_gradient(monkeypatch):
    """The finite differences of one ``check_grpo`` seed read 1 + 2 * 731
    loss values and one gradient; reading ``grads`` inside the loop would
    build a gradient per evaluation again."""
    made, built = [], []

    class Counted(losses.LossWithGrad):
        def __init__(self, value, backward):
            def counted():
                built.append(1)
                return backward()

            made.append(1)
            super().__init__(value, counted)

    monkeypatch.setattr(policy, "LossWithGrad", Counted)
    assert gradcheck.check_grpo(0) < gradcheck.TOLERANCE
    assert len(made) == 1 + 2 * policy.ReportPolicy().flat.size
    assert len(built) == 1

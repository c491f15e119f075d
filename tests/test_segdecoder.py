"""Mask decoder contracts: shapes, ablation identity, determinism, grads."""

import json

import numpy as np
import pytest

from eviground import losses
from eviground.errors import DimMismatchError, ValidationError
from eviground.gradcheck import TOLERANCE
from eviground.segdecoder import (
    Adam,
    SegDecoder,
    SegDecoderConfig,
    decode_mask,
    pad_evidence,
    patchify,
    train_mask_decoder,
    unpatchify,
)


@pytest.fixture
def tiny():
    cfg = SegDecoderConfig(volume_dim=4, patch=2, token_dim=6, layers=2, ffn_hidden=10, seed=1)
    dec = SegDecoder(cfg)
    rng = np.random.default_rng(0)
    tokens = dec.volume_to_tokens(rng.normal(size=(4, 4, 4)))
    evidence = rng.normal(size=(3, 6))
    return dec, tokens, evidence


def test_patchify_roundtrip():
    vol = np.random.default_rng(1).normal(size=(8, 8, 8))
    rows = patchify(vol, 2)
    assert rows.shape == (64, 8)
    np.testing.assert_array_equal(unpatchify(rows, 2, 8), vol)


def test_patchify_batch_axis():
    vols = np.random.default_rng(2).normal(size=(3, 8, 8, 8))
    rows = patchify(vols, 2)
    assert rows.shape == (3, 64, 8)
    for b in range(3):
        np.testing.assert_array_equal(rows[b], patchify(vols[b], 2))
    np.testing.assert_array_equal(unpatchify(rows, 2, 8), vols)


def test_output_shape_and_range(tiny):
    dec, tokens, evidence = tiny
    probs = decode_mask(dec, tokens, evidence)
    assert probs.shape == (4, 4, 4)
    assert np.all(probs > 0) and np.all(probs < 1)


def test_zeroed_cross_attention_ignores_evidence(tiny):
    dec, tokens, _ = tiny
    rng = np.random.default_rng(3)
    a = decode_mask(dec, tokens, rng.normal(size=(3, 6)), zero_cross_attention=True)
    b = decode_mask(dec, tokens, rng.normal(size=(5, 6)), zero_cross_attention=True)
    np.testing.assert_array_equal(a, b)


def test_zeroed_weights_equal_zeroed_flag(tiny):
    dec, tokens, evidence = tiny
    flagged = decode_mask(dec, tokens, evidence, zero_cross_attention=True)
    for i in range(dec.cfg.layers):
        dec.params[f"l{i}.ca_wo"][:] = 0.0
    zeroed = decode_mask(dec, tokens, evidence)
    np.testing.assert_allclose(zeroed, flagged, atol=1e-12)


def test_deterministic_given_weights(tiny):
    dec, tokens, evidence = tiny
    a = decode_mask(dec, tokens, evidence)
    b = decode_mask(dec, tokens, evidence)
    np.testing.assert_array_equal(a, b)


def test_dim_mismatches(tiny):
    dec, tokens, evidence = tiny
    with pytest.raises(DimMismatchError):
        dec.forward(tokens[:, :3], evidence)
    with pytest.raises(DimMismatchError):
        dec.forward(tokens, evidence[:, :3])
    with pytest.raises(ValidationError):
        dec.forward(tokens, evidence[:0])


def test_batch_dim_checks(tiny):
    dec, tokens, evidence = tiny
    with pytest.raises(DimMismatchError):
        dec.forward(tokens[None], evidence)
    with pytest.raises(DimMismatchError):
        dec.forward(np.stack([tokens, tokens]), evidence[None])
    padded, lengths = pad_evidence([evidence, evidence[:2]])
    batch = np.stack([tokens, tokens])
    for bad in ([3], [3, 0], [3, 4]):
        with pytest.raises(ValidationError):
            dec.forward(batch, padded, evidence_lengths=np.array(bad))


def test_batched_forward_equals_batches_of_one(tiny):
    dec, tokens, _ = tiny
    rng = np.random.default_rng(7)
    toks = [dec.volume_to_tokens(rng.normal(size=(4, 4, 4))) for _ in range(3)]
    evs = [rng.normal(size=(n, 6)) for n in (2, 5, 3)]
    padded, lengths = pad_evidence(evs)
    np.testing.assert_array_equal(lengths, [2, 5, 3])
    assert padded.shape == (3, 5, 6) and not padded[0, 2:].any()
    logits, _ = dec.forward(np.stack(toks), padded, evidence_lengths=lengths)
    assert logits.shape == (3, 4, 4, 4)
    for b in range(3):
        single, _ = dec.forward(toks[b], evs[b])
        np.testing.assert_allclose(logits[b], single, rtol=1e-12, atol=0)


def _fd_error(dec, tokens, evidence, gt, lengths=None):
    """The oracle's error for ``dec.loss`` over every entry of ``dec.flat``."""
    lw = dec.loss(tokens, evidence, gt, 1.0, 1.0, lengths)
    assert lw.grads["flat"].shape == dec.flat.shape
    return losses.finite_difference_check(
        lambda _: dec.loss(tokens, evidence, gt, 1.0, 1.0, lengths).value,
        dec.flat,
        lw.grads["flat"],
    )


def test_backward_matches_finite_differences(tiny):
    dec, tokens, evidence = tiny
    gt = (np.random.default_rng(2).random((4, 4, 4)) > 0.5).astype(float)
    assert _fd_error(dec, tokens, evidence, gt) < TOLERANCE


def test_batched_backward_matches_finite_differences(tiny):
    """Batch of two with evidence lengths 3 and 5: the weight gradient sums
    over the batch."""
    dec, _, _ = tiny
    rng = np.random.default_rng(11)
    tokens = np.stack([dec.volume_to_tokens(rng.normal(size=(4, 4, 4))) for _ in range(2)])
    evidence, lengths = pad_evidence([rng.normal(size=(3, 6)), rng.normal(size=(5, 6))])
    gt = (rng.random((2, 4, 4, 4)) > 0.5).astype(float)
    assert _fd_error(dec, tokens, evidence, gt, lengths) < TOLERANCE


def test_flat_adam_matches_per_tensor_formula(tiny):
    dec, _, _ = tiny
    assert sum(view.size for view in dec.params.values()) == dec.flat.size
    for name, view in dec.params.items():
        assert np.shares_memory(view, dec.flat), name

    rng = np.random.default_rng(5)
    dec.flat[...] = rng.normal(size=dec.flat.size)
    lr, b1, b2, eps = 3e-3, 0.9, 0.999, 1e-8
    ref = {k: v.copy() for k, v in dec.params.items()}
    m = {k: np.zeros_like(v) for k, v in ref.items()}
    v = {k: np.zeros_like(x) for k, x in ref.items()}
    opt = Adam(dec.flat, lr, b1, b2, eps)
    for t in range(1, 21):
        # gradient scales from 1e-6 to 1e3 exercise the rounding of every term
        g = rng.normal(size=dec.flat.size) * 10.0 ** rng.integers(-6, 4, size=dec.flat.size)
        opt.step(dec.flat, g)
        for k, gk in dec.views(g).items():
            m[k] = b1 * m[k] + (1 - b1) * gk
            v[k] = b2 * v[k] + (1 - b2) * gk * gk
            m_hat = m[k] / (1 - b1**t)
            v_hat = v[k] / (1 - b2**t)
            ref[k] -= lr * m_hat / (np.sqrt(v_hat) + eps)
    for k, expected in ref.items():
        np.testing.assert_array_equal(dec.params[k], expected, err_msg=k)


def test_training_reduces_loss_single_sample(tiny):
    dec, tokens, evidence = tiny
    gt = np.zeros((4, 4, 4))
    gt[:2] = 1.0
    rows = train_mask_decoder(dec, [(tokens, evidence, gt)], epochs=200, lr=3e-3)
    assert rows[-1]["l_mask"] < rows[0]["l_mask"] * 0.5
    assert all(row["g_mask"] > 0 for row in rows)


def _samples(dec, n, seed):
    rng = np.random.default_rng(seed)
    return [
        (
            dec.volume_to_tokens(rng.normal(size=(4, 4, 4))),
            rng.normal(size=(int(rng.integers(2, 5)), 6)),
            rng.random((4, 4, 4)) > 0.6,
        )
        for _ in range(n)
    ]


def test_batch_of_one_is_the_per_sample_loop(tiny):
    """batch_size=1 takes exactly the steps of a 2-D forward/backward loop
    on the float32 tokens the trainer computes with."""
    dec, _, _ = tiny
    samples = _samples(dec, 4, seed=3)
    ref = SegDecoder(dec.cfg)
    opt = Adam(ref.flat, 2e-3)
    rng = np.random.default_rng(5)
    for _ in range(3):
        for idx in rng.permutation(len(samples)):
            tokens, ev, mask = samples[idx]
            loss = ref.loss(tokens.astype(np.float32), ev, mask.astype(float), 1.0, 1.0)
            opt.step(ref.flat, loss.grads["flat"])
    got = SegDecoder(dec.cfg)
    train_mask_decoder(got, samples, epochs=3, lr=2e-3, seed=5, batch_size=1)
    np.testing.assert_array_equal(got.flat, ref.flat)


def _flat_gradient(dec, tokens, evidence, gt, lengths=None):
    return dec.loss(tokens, evidence, gt, 1.0, 1.0, lengths).grads["flat"]


def _default_batch():
    """Default-config decoder and a batch of four with padded evidence."""
    dec = SegDecoder(SegDecoderConfig())
    rng = np.random.default_rng(13)
    tokens = np.stack([dec.volume_to_tokens(rng.normal(size=(16, 16, 16))) for _ in range(4)])
    evidence, lengths = pad_evidence([rng.normal(size=(n, 32)) for n in (3, 7, 2, 5)])
    gt = (rng.random((4, 16, 16, 16)) > 0.7).astype(float)
    return dec, tokens, evidence, gt, lengths


@pytest.mark.parametrize("case", ["tiny", "default_batch_of_four"])
def test_float32_gradient_matches_float64(tiny, case):
    if case == "tiny":
        dec, tokens, evidence = tiny
        gt = (np.random.default_rng(2).random((4, 4, 4)) > 0.5).astype(float)
        lengths = None
    else:
        dec, tokens, evidence, gt, lengths = _default_batch()
    g64 = _flat_gradient(dec, tokens, evidence, gt, lengths)
    g32 = _flat_gradient(dec, tokens.astype(np.float32), evidence, gt, lengths)
    assert g64.dtype == g32.dtype == np.float64
    assert np.linalg.norm(g32 - g64) <= 1e-5 * np.linalg.norm(g64)


def test_training_keeps_float64_master_state(tiny, monkeypatch):
    dec, tokens, evidence = tiny
    optimizers, step = [], Adam.step
    monkeypatch.setattr(
        Adam, "step", lambda self, p, g: optimizers.append(self) or step(self, p, g)
    )
    train_mask_decoder(dec, _samples(dec, 3, seed=8), epochs=2, lr=1e-3, batch_size=2)
    opt = optimizers[-1]
    assert dec.flat.dtype == opt.m.dtype == opt.v.dtype == np.float64
    assert all(view.dtype == np.float64 for view in dec.params.values())
    assert dec.forward(tokens, evidence)[0].dtype == np.float64
    assert dec.forward(tokens.astype(np.float32), evidence)[0].dtype == np.float32


def test_short_last_batch_trains(tiny, monkeypatch):
    dec, _, _ = tiny
    samples = _samples(dec, 5, seed=4)
    steps = []
    step = Adam.step
    monkeypatch.setattr(Adam, "step", lambda self, p, g: steps.append(1) or step(self, p, g))
    before = dec.flat.copy()
    rows = train_mask_decoder(dec, samples, epochs=40, lr=3e-3, batch_size=2)
    assert len(steps) == 40 * 3  # ceil(5 / 2) steps per epoch, the last on one sample
    assert np.all(np.isfinite(dec.flat)) and not np.array_equal(dec.flat, before)
    assert rows[-1]["l_mask"] < rows[0]["l_mask"]


def test_bool_and_float_masks_give_equal_checkpoints(tmp_path, tiny):
    dec, _, _ = tiny
    samples = _samples(dec, 5, seed=6)
    as_float = [(t, e, m.astype(np.float64)) for t, e, m in samples]
    for name, data in (("bool", samples), ("float", as_float)):
        model = SegDecoder(dec.cfg)
        train_mask_decoder(model, data, epochs=3, lr=2e-3, batch_size=2)
        model.save(tmp_path / name)
        if name == "bool":
            trained = model.flat.copy()
    np.testing.assert_array_equal(model.flat, trained)
    for path in sorted((tmp_path / "bool").iterdir()):
        assert path.read_bytes() == (tmp_path / "float" / path.name).read_bytes(), path.name


def test_batch_size_must_be_positive(tiny):
    dec, tokens, evidence = tiny
    with pytest.raises(ValidationError):
        train_mask_decoder(dec, [(tokens, evidence, np.zeros((4, 4, 4)))], 1, 1e-3, batch_size=0)


def test_checkpoint_roundtrip(tmp_path, tiny):
    dec, tokens, evidence = tiny
    ref = decode_mask(dec, tokens, evidence)
    dec.save(tmp_path / "dec")
    back = SegDecoder.load(tmp_path / "dec")
    assert all(np.shares_memory(view, back.flat) for view in back.params.values())
    got = decode_mask(back, tokens, evidence)
    np.testing.assert_allclose(got, ref, atol=1e-5)  # f32 serialization


@pytest.mark.parametrize("key, value", [("heads", 2), ("layers", "2")])
def test_load_rejects_bad_manifest_dims(tmp_path, tiny, key, value):
    dec, _, _ = tiny
    dec.save(tmp_path / "dec")
    manifest_path = tmp_path / "dec" / "manifest.json"
    manifest = json.loads(manifest_path.read_text())
    manifest[key] = value
    manifest_path.write_text(json.dumps(manifest))
    with pytest.raises(ValidationError, match=key):
        SegDecoder.load(tmp_path / "dec")


def test_params_read_only(tiny):
    dec, _, _ = tiny
    with pytest.raises(TypeError):
        dec.params["head_b"] = np.zeros_like(dec.params["head_b"])

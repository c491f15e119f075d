"""Alignment-stage losses and the short-training property."""

import math

import numpy as np
import pytest

from eviground import pretrain
from eviground.errors import DimMismatchError, IndexOutOfRangeError
from eviground.losses import PROB_FLOOR, mse_loss, softmax, token_nll


class TestItcLoss:
    def test_matched_orthogonal_pairs(self):
        f = np.eye(2)
        lw = pretrain.itc_loss(f, f, tau=1.0)
        assert lw.value == pytest.approx(-math.log(math.e / (math.e + 1)), abs=1e-6)
        assert lw.value == pytest.approx(0.3133, abs=1e-4)

    def test_identical_rows_give_log_b(self):
        row = np.array([1.0, 0.0, 0.0])
        f = np.tile(row, (4, 1))
        lw = pretrain.itc_loss(f, f, tau=1.0)
        assert lw.value == pytest.approx(math.log(4), abs=1e-12)

    def test_permutation_invariance(self):
        rng = np.random.default_rng(0)
        fi = rng.normal(size=(5, 4))
        fi /= np.linalg.norm(fi, axis=1, keepdims=True)
        ft = rng.normal(size=(5, 4))
        ft /= np.linalg.norm(ft, axis=1, keepdims=True)
        base = pretrain.itc_loss(fi, ft, tau=0.5).value
        perm = rng.permutation(5)
        got = pretrain.itc_loss(fi[perm], ft[perm], tau=0.5).value
        assert got == pytest.approx(base, abs=1e-12)

    def test_batch_mismatch(self):
        with pytest.raises(DimMismatchError):
            pretrain.itc_loss(np.eye(3), np.eye(2))

    def test_gradient_fd(self):
        from eviground.gradcheck import check_itc

        assert max(check_itc(s) for s in range(10)) < 1e-4


def _per_row_reconstruction(x, x_hat, token_targets, logits):
    """The per-sample losses the batch form replaced: every decoding step of
    a sample reads its one logit row, tiled once per target."""
    values_v, values_t, dxhat, dlogits = [], [], [], []
    for row, targets in enumerate(token_targets):
        res_v = mse_loss(x[row], x_hat[row])
        tiled = np.tile(logits[row], (len(targets), 1))
        probs = softmax(tiled)
        nll = token_nll(probs, targets)
        dprobs = nll.grads["probs"]
        d_tiled = probs * (dprobs - np.sum(dprobs * probs, axis=-1, keepdims=True))
        values_v.append(res_v.value)
        values_t.append(nll.value)
        dxhat.append(res_v.grads["x_hat"])
        dlogits.append(d_tiled.sum(axis=0))
    b = len(token_targets)
    return (
        float(np.mean(values_v)),
        float(np.mean(values_t)),
        np.stack(dxhat) / b,
        np.stack(dlogits) / b,
    )


def _batch_with_floor_cases(seed):
    """Three samples: one with a repeated target, one whose first target has
    probability below ``PROB_FLOOR`` and one plain."""
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(3, 6))
    x_hat = rng.normal(size=(3, 6))
    logits = rng.normal(size=(3, 5))
    logits[1, 2] = -40.0
    targets = [np.array([3, 1, 3]), np.array([2, 0]), np.array([4])]
    assert softmax(logits)[1, 2] < PROB_FLOOR
    return x, x_hat, targets, logits


class TestReconstructionLosses:
    def test_perfect_reconstructions(self):
        x = np.random.default_rng(1).normal(size=(2, 8))
        targets = [np.array([2, 2]), np.array([0])]
        logits = np.full((2, 3), -30.0)
        logits[0, 2] = 30.0
        logits[1, 0] = 30.0
        res_v, res_t = pretrain.reconstruction_losses(x, x.copy(), targets, logits)
        assert res_v.value == 0.0
        assert res_t.value <= 1e-9

    def test_matches_independent_recomputation(self):
        """Values and gradients equal the per-sample tiled losses' batch mean."""
        x, x_hat, targets, logits = _batch_with_floor_cases(2)
        res_v, res_t = pretrain.reconstruction_losses(x, x_hat, targets, logits)
        want_v, want_t, want_dxhat, want_dlogits = _per_row_reconstruction(
            x, x_hat, targets, logits
        )
        assert res_v.value == pytest.approx(want_v, abs=1e-12)
        assert res_t.value == pytest.approx(want_t, abs=1e-12)
        np.testing.assert_allclose(res_v.grads["x_hat"], want_dxhat, rtol=0, atol=1e-12)
        np.testing.assert_allclose(res_t.grads["txt_logits"], want_dlogits, rtol=0, atol=1e-12)

    def test_txt_logits_gradient_fd(self):
        from eviground.losses import finite_difference_check

        x, _, targets, logits = _batch_with_floor_cases(3)
        _, res_t = pretrain.reconstruction_losses(x, x, targets, logits)
        err = finite_difference_check(
            lambda z: pretrain.reconstruction_losses(x, x, targets, z)[1].value,
            logits.copy(),
            res_t.grads["txt_logits"],
        )
        # the sub-floor target's probability has no gradient of its own
        assert abs(res_t.grads["txt_logits"][1, 2]) < 1e-15
        assert err < 1e-6

    def test_x_hat_gradient_fd(self):
        from eviground.losses import finite_difference_check

        x, x_hat, targets, logits = _batch_with_floor_cases(4)
        res_v, _ = pretrain.reconstruction_losses(x, x_hat, targets, logits)
        err = finite_difference_check(
            lambda xh: pretrain.reconstruction_losses(x, xh, targets, logits)[0].value,
            x_hat.copy(),
            res_v.grads["x_hat"],
        )
        assert err < 1e-4

    def test_target_outside_vocabulary_raises(self):
        x = np.zeros((2, 3))
        with pytest.raises(IndexOutOfRangeError):
            pretrain.reconstruction_losses(x, x, [np.array([0]), np.array([5])], np.zeros((2, 5)))


def _per_row_run_pretrain(data, cfg, *, seed):
    """``run_pretrain`` as a loop over the batch's samples: per-sample
    reconstruction losses on tiled logit rows, outer-product gradients
    accumulated into one flat vector, one update of the whole vector."""
    from eviground import tensorio

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
    params["img_enc"][...] = rng.normal(0, 1 / np.sqrt(img_dim), (img_dim, d))
    params["txt_enc"][...] = rng.normal(0, 1 / np.sqrt(txt_dim), (txt_dim, d))
    params["img_dec"][...] = rng.normal(0, 0.01, (d, vol_flat.shape[1]))
    params["txt_dec"][...] = rng.normal(0, 0.01, (d, data.vocab))

    history = []
    for step in range(cfg.steps):
        idx = rng.choice(n, size=min(cfg.batch_size, n), replace=False)
        img_in = data.img_pooled[idx]
        txt_in = data.txt_feats[idx]
        img_f, img_norms = pretrain._normalize_rows(img_in @ params["img_enc"])
        txt_f, txt_norms = pretrain._normalize_rows(txt_in @ params["txt_enc"])
        itc = pretrain.itc_loss(img_f, txt_f, cfg.tau)
        gflat = np.zeros_like(flat)
        grads = tensorio.views(gflat, slots)
        d_img_f = itc.grads["img_feats"].copy()
        d_txt_f = itc.grads["txt_feats"].copy()
        x_hat = img_f @ params["img_dec"] + params["img_dec_b"]
        logits = txt_f @ params["txt_dec"] + params["txt_dec_b"]
        res_v_val, res_t_val, dxhat_rows, dlogit_rows = _per_row_reconstruction(
            vol_flat[idx], x_hat, [data.token_ids[i] for i in idx], logits
        )
        for row in range(len(idx)):
            dxhat = cfg.lambda_res * dxhat_rows[row]
            grads["img_dec"] += np.outer(img_f[row], dxhat)
            grads["img_dec_b"] += dxhat
            d_img_f[row] += dxhat @ params["img_dec"].T
            dlogits = cfg.lambda_res * dlogit_rows[row]
            grads["txt_dec"] += np.outer(txt_f[row], dlogits)
            grads["txt_dec_b"] += dlogits
            d_txt_f[row] += dlogits @ params["txt_dec"].T
        grads["img_enc"] += img_in.T @ pretrain._backprop_normalize(d_img_f, img_f, img_norms)
        grads["txt_enc"] += txt_in.T @ pretrain._backprop_normalize(d_txt_f, txt_f, txt_norms)
        flat -= cfg.lr * gflat
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


class TestRunPretrain:
    def _synthetic_data(self, n=24, seed=0):
        rng = np.random.default_rng(seed)
        volumes = rng.normal(size=(n, 8, 8, 8))
        pooled = volumes.reshape(n, 8, -1).mean(axis=2)
        txt = pooled @ rng.normal(size=(8, 16)) + 0.1 * rng.normal(size=(n, 16))
        token_ids = [rng.integers(0, 32, size=rng.integers(3, 8)) for _ in range(n)]
        return pretrain.PretrainData(pooled, volumes, txt, token_ids, 32)

    def test_combined_loss_decreases_over_200_steps(self):
        data = self._synthetic_data()
        hist = pretrain.run_pretrain(data, pretrain.PretrainConfig(steps=200), seed=0)
        first = np.mean([h["l_pt"] for h in hist[:20]])
        last = np.mean([h["l_pt"] for h in hist[-20:]])
        assert last < first

    def test_lambda_res_zero_reduces_to_itc(self):
        data = self._synthetic_data()
        hist = pretrain.run_pretrain(
            data, pretrain.PretrainConfig(steps=5, lambda_res=0.0), seed=1
        )
        for row in hist:
            assert row["l_pt"] == pytest.approx(row["l_itc"], abs=1e-12)

    def test_steps_match_per_row_reference(self):
        """Three batched steps against the per-row loop they replaced; step
        1 and 2's losses read the parameters the earlier updates left."""
        data = self._synthetic_data(n=12, seed=5)
        for cfg in (pretrain.PretrainConfig(steps=3), pretrain.PretrainConfig(steps=3, batch_size=16)):
            got = pretrain.run_pretrain(data, cfg, seed=5)
            want = _per_row_run_pretrain(data, cfg, seed=5)
            for g, w in zip(got, want):
                for key in w:
                    assert g[key] == pytest.approx(w[key], rel=0, abs=1e-12), key

    def test_log_columns(self):
        data = self._synthetic_data()
        hist = pretrain.run_pretrain(data, pretrain.PretrainConfig(steps=3), seed=2)
        assert list(hist[0]) == ["step", "l_itc", "l_res_v", "l_res_t", "l_pt"]


"""Alignment-stage losses, EMA update, and the short-training property."""

import math

import numpy as np
import pytest

from eviground import pretrain
from eviground.errors import DimMismatchError
from eviground.losses import softmax, token_nll


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


class TestReconstructionLosses:
    def test_perfect_reconstructions(self):
        x = np.random.default_rng(1).normal(size=8)
        targets = np.array([2, 0])
        logits = np.full((2, 3), -30.0)
        logits[0, 2] = 30.0
        logits[1, 0] = 30.0
        res_v, res_t = pretrain.reconstruction_losses(x, x.copy(), targets, logits)
        assert res_v.value == 0.0
        assert res_t.value <= 1e-9

    def test_matches_independent_recomputation(self):
        rng = np.random.default_rng(2)
        x = rng.normal(size=6)
        x_hat = rng.normal(size=6)
        targets = rng.integers(0, 4, size=3)
        logits = rng.normal(size=(3, 4))
        res_v, res_t = pretrain.reconstruction_losses(x, x_hat, targets, logits)
        assert res_v.value == pytest.approx(float(np.mean((x - x_hat) ** 2)), abs=1e-12)
        want = token_nll(softmax(logits), targets).value
        assert res_t.value == pytest.approx(want, abs=1e-12)

    def test_txt_logits_gradient_fd(self):
        from eviground.losses import finite_difference_check

        rng = np.random.default_rng(3)
        x = rng.normal(size=4)
        targets = rng.integers(0, 5, size=2)
        logits = rng.normal(size=(2, 5))
        _, res_t = pretrain.reconstruction_losses(x, x, targets, logits)
        err = finite_difference_check(
            lambda z: pretrain.reconstruction_losses(x, x, targets, z)[1].value,
            logits.copy(),
            res_t.grads["txt_logits"],
        )
        assert err < 1e-4


class TestEmaUpdate:
    def test_fixed_point(self):
        w = np.array([1.0, 2.0])
        state = pretrain.EmaState({"w": w}, {"w": w.copy()}, m=0.9)
        pretrain.ema_update(state)
        np.testing.assert_array_equal(state.momentum["w"], w)

    def test_zero_momentum_copies_online(self):
        state = pretrain.EmaState({"w": np.array([3.0])}, {"w": np.array([7.0])}, m=0.0)
        pretrain.ema_update(state)
        np.testing.assert_array_equal(state.momentum["w"], [3.0])

    def test_halfway(self):
        state = pretrain.EmaState({"w": np.array([2.0])}, {"w": np.array([0.0])}, m=0.5)
        pretrain.ema_update(state)
        np.testing.assert_allclose(state.momentum["w"], [1.0])

    def test_contraction_toward_online(self):
        rng = np.random.default_rng(4)
        online = rng.normal(size=6)
        momentum = rng.normal(size=6)
        state = pretrain.EmaState({"w": online}, {"w": momentum.copy()}, m=0.8)
        before = np.linalg.norm(momentum - online)
        pretrain.ema_update(state)
        after = np.linalg.norm(state.momentum["w"] - online)
        assert after <= 0.8 * before + 1e-12


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

    def test_log_columns(self):
        data = self._synthetic_data()
        hist = pretrain.run_pretrain(data, pretrain.PretrainConfig(steps=3), seed=2)
        assert list(hist[0]) == ["step", "l_itc", "l_res_v", "l_res_t", "l_pt"]


class TestMomentumNegatives:
    def test_flag_adds_negative_columns_without_breaking(self):
        rng = np.random.default_rng(7)
        data = TestRunPretrain._synthetic_data(TestRunPretrain(), n=12, seed=7)
        cfg = pretrain.PretrainConfig(steps=20, use_momentum_negatives=True)
        hist = pretrain.run_pretrain(data, cfg, seed=7)
        assert len(hist) == 20
        assert all(np.isfinite(row["l_pt"]) for row in hist)

    def test_extra_negatives_raise_itc_loss(self):
        rng = np.random.default_rng(8)
        f_i = rng.normal(size=(4, 6))
        f_i /= np.linalg.norm(f_i, axis=1, keepdims=True)
        f_t = rng.normal(size=(4, 6))
        f_t /= np.linalg.norm(f_t, axis=1, keepdims=True)
        base = pretrain.itc_loss(f_i, f_t, tau=0.5).value
        extra = rng.normal(size=(3, 6))
        extra /= np.linalg.norm(extra, axis=1, keepdims=True)
        with_neg = pretrain.itc_loss(f_i, f_t, tau=0.5, extra_img=extra, extra_txt=extra).value
        assert with_neg >= base  # denominators only grow

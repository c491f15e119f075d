"""Elementary loss values, gradients, and invariants."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eviground import losses
from eviground.errors import DimMismatchError, IndexOutOfRangeError

RNG = np.random.default_rng


class TestSoftmax:
    def test_symmetry(self):
        np.testing.assert_allclose(losses.softmax(np.zeros(2)), [0.5, 0.5])

    def test_closed_form(self):
        np.testing.assert_allclose(
            losses.softmax(np.array([math.log(3), 0.0])), [0.75, 0.25], atol=1e-12
        )

    def test_temperature_scaling_identity(self):
        a = losses.softmax(np.array([2.0, 0.0]), temperature=2.0)
        b = losses.softmax(np.array([1.0, 0.0]), temperature=1.0)
        np.testing.assert_allclose(a, b, atol=1e-12)

    @given(st.lists(st.floats(-50, 50), min_size=1, max_size=12))
    def test_sums_to_one(self, logits):
        out = losses.softmax(np.array(logits))
        assert abs(out.sum() - 1.0) <= 1e-12

    @given(st.lists(st.floats(-30, 30), min_size=2, max_size=8), st.floats(-100, 100))
    def test_shift_invariance(self, logits, shift):
        z = np.array(logits)
        np.testing.assert_allclose(losses.softmax(z), losses.softmax(z + shift), atol=1e-12)

    def test_bit_equal_to_wrapper_form(self):
        rng = RNG(1)
        for shape in [(7,), (1,), (4, 9), (3, 2, 5)]:
            for temperature in (0.07, 1.0, 2.0):
                logits = rng.normal(size=shape) * 20.0
                z = logits / temperature
                z = z - np.max(z, axis=-1, keepdims=True)
                e = np.exp(z)
                want = e / np.sum(e, axis=-1, keepdims=True)
                np.testing.assert_array_equal(losses.softmax(logits, temperature), want)


class TestKlDivergence:
    def test_identity_is_zero(self):
        q = np.array([0.2, 0.3, 0.5])
        assert losses.kl_divergence(q, q) == 0.0

    def test_closed_form_log2(self):
        got = losses.kl_divergence(np.array([1.0, 0.0]), np.array([0.5, 0.5]))
        assert got == pytest.approx(math.log(2), abs=1e-12)

    def test_matches_bruteforce_on_random_pairs(self):
        rng = RNG(0)
        for _ in range(50):
            q = rng.dirichlet(np.ones(5))
            p = rng.dirichlet(np.ones(5))
            brute = sum(
                qi * (math.log(max(qi, 1e-9)) - math.log(max(pi, 1e-9)))
                for qi, pi in zip(q, p)
                if qi > 0
            )
            assert losses.kl_divergence(q, p) == pytest.approx(brute, abs=1e-12)

    def test_bit_equal_to_wrapper_form(self):
        rng = RNG(2)
        for _ in range(200):
            n = int(rng.integers(1, 20))
            q = rng.dirichlet(np.ones(n))
            q[rng.random(n) < 0.2] = 0.0
            p = rng.dirichlet(np.ones(n) * 0.05)  # some entries fall below the floor
            pf = np.maximum(p, losses.PROB_FLOOR)
            terms = np.where(q > 0, q * (np.log(np.maximum(q, losses.PROB_FLOOR)) - np.log(pf)), 0.0)
            assert losses.kl_divergence(q, p) == float(np.sum(terms))

    @given(st.integers(0, 1000))
    @settings(max_examples=60)
    def test_nonnegative_and_zero_iff_equal(self, seed):
        rng = RNG(seed)
        q = rng.dirichlet(np.ones(10))
        p = rng.dirichlet(np.ones(10))
        assert losses.kl_divergence(q, p) >= 0.0
        assert losses.kl_divergence(q, q) == pytest.approx(0.0, abs=1e-15)
        if np.max(np.abs(q - p)) > 1e-3:
            assert losses.kl_divergence(q, p) > 0.0


class TestTokenNll:
    def test_deterministic_correct_predictions(self):
        probs = np.eye(3)
        assert losses.token_nll(probs, np.arange(3)).value == pytest.approx(0.0)

    def test_uniform_vocab_four(self):
        probs = np.full((5, 4), 0.25)
        got = losses.token_nll(probs, np.zeros(5, dtype=int)).value
        assert got == pytest.approx(math.log(4), abs=1e-12)

    def test_single_step_quarter(self):
        got = losses.token_nll(np.array([[0.25, 0.75]]), np.array([0])).value
        assert got == pytest.approx(1.3863, abs=1e-4)

    def test_index_out_of_range(self):
        with pytest.raises(IndexOutOfRangeError):
            losses.token_nll(np.full((1, 3), 1 / 3), np.array([3]))


class TestMseLoss:
    def test_identity_zero(self):
        x = RNG(1).normal(size=(3, 3))
        assert losses.mse_loss(x, x).value == 0.0

    def test_unit_example(self):
        assert losses.mse_loss(np.zeros(2), np.ones(2)).value == pytest.approx(1.0)

    def test_matches_direct_loop(self):
        rng = RNG(2)
        x, y = rng.normal(size=7), rng.normal(size=7)
        direct = sum((a - b) ** 2 for a, b in zip(x, y)) / 7
        assert losses.mse_loss(x, y).value == pytest.approx(direct, abs=1e-12)

    def test_dim_mismatch(self):
        with pytest.raises(DimMismatchError):
            losses.mse_loss(np.ones(2), np.ones(3))


class TestDiceScore:
    def test_perfect_overlap(self):
        g = (RNG(3).random((4, 4, 4)) > 0.5).astype(float)
        assert losses.dice_score(g, g) == pytest.approx(1.0, abs=1e-4)

    def test_disjoint_masks(self):
        a = np.zeros(8)
        a[:4] = 1.0
        b = 1.0 - a
        assert losses.dice_score(a, b) <= 1e-4

    def test_half_ones_grid(self):
        pred = np.full((2, 2, 2), 0.5)
        gt = np.zeros((2, 2, 2))
        gt[0] = 1.0
        assert losses.dice_score(pred, gt) == pytest.approx(0.6667, abs=1e-3)

    @given(st.integers(0, 500))
    @settings(max_examples=40)
    def test_symmetric_for_binary(self, seed):
        rng = RNG(seed)
        a = (rng.random(16) > 0.5).astype(float)
        b = (rng.random(16) > 0.5).astype(float)
        assert losses.dice_score(a, b) == pytest.approx(losses.dice_score(b, a), abs=1e-15)


def test_sigmoid_matches_two_branch_formula():
    """1/(1+exp(-z)) for z >= 0 and exp(z)/(1+exp(z)) below, bit for bit."""
    z = np.concatenate(
        [RNG(9).normal(0, 8, size=2000), [0.0, -0.0, 1e-300, -1e-300, 40.0, -40.0, 800.0, -800.0]]
    )
    ref = np.empty_like(z)
    pos = z >= 0
    ref[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ref[~pos] = np.exp(z[~pos]) / (1.0 + np.exp(z[~pos]))
    assert np.array_equal(losses._sigmoid(z), ref)


class TestDiceBceLoss:
    def test_perfect_prediction_small(self):
        gt = np.zeros((2, 2, 2))
        gt[0, 0, 0] = 1.0
        logits = np.where(gt > 0, 12.0, -12.0)
        assert losses.dice_bce_loss(logits, gt).value <= 1e-3

    def test_dice_only_half_ones(self):
        gt = np.zeros((2, 2, 2))
        gt[0] = 1.0
        got = losses.dice_bce_loss(np.zeros((2, 2, 2)), gt, lambda_dice=1.0, lambda_bce=0.0)
        assert got.value == pytest.approx(0.3333, abs=1e-3)

    def test_batch_is_mean_of_volume_losses(self):
        rng = RNG(5)
        logits = rng.normal(0, 2, size=(3, 4, 4, 4))
        gt = (rng.random((3, 4, 4, 4)) > 0.6).astype(float)
        batch = losses.dice_bce_loss(logits, gt, lambda_dice=0.7, lambda_bce=1.3)
        singles = [losses.dice_bce_loss(logits[b], gt[b], 0.7, 1.3) for b in range(3)]
        assert batch.value == pytest.approx(np.mean([s.value for s in singles]), rel=1e-14)
        for b, single in enumerate(singles):
            np.testing.assert_allclose(
                batch.grads["pred_logits"][b], single.grads["pred_logits"] / 3, rtol=1e-14
            )

    def test_batch_of_one_equals_volume_call(self):
        rng = RNG(6)
        logits = rng.normal(0, 2, size=(8, 8, 8))
        gt = (rng.random((8, 8, 8)) > 0.7).astype(float)
        one = losses.dice_bce_loss(logits, gt)
        batch = losses.dice_bce_loss(logits[None], gt[None])
        assert batch.value == one.value
        assert np.array_equal(batch.grads["pred_logits"][0], one.grads["pred_logits"])

    def test_rejects_non_volume_shapes(self):
        with pytest.raises(DimMismatchError):
            losses.dice_bce_loss(np.zeros((4, 4)), np.zeros((4, 4)))

    def test_gradient_vs_finite_differences(self):
        rng = RNG(4)
        gt = (rng.random((3, 3, 3)) > 0.6).astype(float)
        logits = rng.normal(size=(3, 3, 3))
        lw = losses.dice_bce_loss(logits, gt)
        err = losses.finite_difference_check(
            lambda z: losses.dice_bce_loss(z, gt).value, logits.copy(), lw.grads["pred_logits"]
        )
        assert err < 1e-4


class TestFiniteDifferenceCheck:
    def test_exact_quadratic(self):
        x = np.array([1.0, 2.0])
        err = losses.finite_difference_check(lambda v: float(np.sum(v**2)), x, 2 * x)
        assert err <= 1e-6

    def test_wrong_gradient_detected(self):
        x = np.array([1.0, 2.0])
        err = losses.finite_difference_check(lambda v: float(np.sum(v**2)), x, 4 * x)
        assert err == pytest.approx(1.0, abs=1e-6)

    def test_small_entry_mismatch_above_absolute_bound_reports_one(self):
        """Entries below 1e-6 are checked absolutely: off by 2e-8 fails."""
        x = np.array([0.3, -0.7])
        slope = np.array([4e-7, -2e-7])
        err = losses.finite_difference_check(lambda v: float(slope @ v), x, slope + [2e-8, 0.0])
        assert err == 1.0

    def test_small_entry_within_absolute_bound_passes(self):
        """Off by 5e-9 passes, though that is 1.25% of the entry."""
        x = np.array([0.3, -0.7])
        slope = np.array([4e-7, -2e-7])
        err = losses.finite_difference_check(lambda v: float(slope @ v), x, slope + [5e-9, 0.0])
        assert err == 0.0

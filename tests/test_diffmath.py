import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from driftcast.diffmath import AffineLayer, affine_apply, mse_with_grad
from conftest import fd_grad, rel_err

finite = st.floats(-10, 10, allow_nan=False, allow_infinity=False, width=64)


def small_mats(rows=st.integers(1, 5), cols=st.integers(1, 5)):
    return st.tuples(rows, cols).flatmap(
        lambda s: arrays(np.float64, shape=s, elements=finite))


class TestAffine:
    def test_apply_matches_manual(self):
        rng = np.random.default_rng(0)
        w = rng.standard_normal((3, 4))
        b = rng.standard_normal(3)
        x = rng.standard_normal((2, 4))
        expect = np.array([[x[r] @ w[o] + b[o] for o in range(3)] for r in range(2)])
        np.testing.assert_allclose(affine_apply(w, b, x), expect, rtol=1e-12)

    def test_seeded_init_deterministic_zero_bias(self):
        a = AffineLayer.seeded(4, 3, np.random.default_rng(9))
        b = AffineLayer.seeded(4, 3, np.random.default_rng(9))
        np.testing.assert_array_equal(a.weight, b.weight)
        np.testing.assert_array_equal(a.bias, np.zeros(4))

    def test_clone_is_independent(self):
        a = AffineLayer.seeded(2, 2, np.random.default_rng(3))
        c = a.clone()
        c.weight[0, 0] += 1.0
        assert a.weight[0, 0] != c.weight[0, 0]


class TestMse:
    def test_value_and_grad_hand_case(self):
        pred = np.array([[1.0, 2.0], [3.0, 4.0]])
        target = np.array([[0.0, 2.0], [3.0, 0.0]])
        val, grad = mse_with_grad(pred, target)
        assert val == pytest.approx((1.0 + 0.0 + 0.0 + 16.0) / 4.0)
        np.testing.assert_allclose(grad, 2.0 * (pred - target) / 4.0)

    def test_grad_matches_finite_differences(self):
        rng = np.random.default_rng(2)
        pred = rng.standard_normal((3, 5))
        target = rng.standard_normal((3, 5))

        def loss():
            return mse_with_grad(pred, target)[0]

        _, grad = mse_with_grad(pred, target)
        assert rel_err(grad, fd_grad(loss, pred)) < 1e-6

    def test_shape_mismatch_and_empty_rejected(self):
        with pytest.raises(ValueError):
            mse_with_grad(np.ones((2, 2)), np.ones((2, 3)))
        with pytest.raises(ValueError, match="empty"):
            mse_with_grad(np.ones((0, 2)), np.ones((0, 2)))

    @given(small_mats())
    @settings(max_examples=30, deadline=None)
    def test_zero_at_perfect_prediction(self, x):
        val, grad = mse_with_grad(x, x.copy())
        assert val == 0.0
        np.testing.assert_array_equal(grad, np.zeros_like(x))

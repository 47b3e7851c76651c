import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from driftcast import build_adapter, build_model
from driftcast.adapter import sgd_step
from driftcast.diffmath import AffineLayer, affine_apply, descend, mse_with_grad
from driftcast.forecaster import apply_param_step
from conftest import fd_grad, reduction_inputs, rel_err, same_bytes

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

    @pytest.mark.parametrize("make, field", [
        (lambda: AffineLayer.seeded(3, 0, np.random.default_rng(0)), "in_dim 0"),
        (lambda: AffineLayer.seeded(0, 3, np.random.default_rng(0)), "out_dim 0"),
        (lambda: build_model(16, 4, d=0), "out_dim 0"),
        (lambda: build_model(16, 4, d=0, n_blocks=1), "out_dim 0"),
        (lambda: build_model(0, 4), "in_dim 0"),
        (lambda: build_adapter(0), "in_dim 0"),
    ], ids=["in", "out", "model_width", "one_block_width", "lookback", "adapter"])
    def test_zero_width_rejected(self, make, field):
        with pytest.raises(ValueError, match=f"layer widths must be >= 1, .*{field}"):
            make()

    def test_bias_length_must_match_weight_rows(self):
        with pytest.raises(ValueError, match="bias length 3 != weight rows 2"):
            AffineLayer(np.ones((2, 4)), np.zeros(3))


class TestParamProtocol:
    """named_params lists each layer's weight then bias, in layer order."""

    def test_model_names_and_order(self):
        model = build_model(L=5, k=2, d=3, n_blocks=3, seed=0)
        assert [n for n, _ in model.named_params()] == [
            "blocks.0.weight", "blocks.0.bias", "blocks.1.weight", "blocks.1.bias",
            "blocks.2.weight", "blocks.2.bias", "head.weight", "head.bias"]
        layers = model.blocks + [model.head]
        arrays_ = [a for layer in layers for a in (layer.weight, layer.bias)]
        assert all(p is q for (_, p), q in zip(model.named_params(), arrays_))

    def test_adapter_names_and_order(self):
        a = build_adapter(d=3, seed=0)
        assert [n for n, _ in a.named_params()] == [
            "path_feat.weight", "path_feat.bias", "path_grad.weight", "path_grad.bias",
            "hidden.weight", "hidden.bias", "out.weight", "out.bias"]
        layers = [a.path_feat, a.path_grad, a.hidden, a.out]
        arrays_ = [p for layer in layers for p in (layer.weight, layer.bias)]
        assert all(p is q for (_, p), q in zip(a.named_params(), arrays_))


class TestDescend:
    def test_moves_only_named_params_into_new_arrays(self):
        model = build_model(L=5, k=2, d=3, n_blocks=3, seed=1)
        before = dict(model.named_params())
        snapshot = {n: p.copy() for n, p in before.items()}
        grads = {"blocks.1.bias": np.full(3, 2.0), "head.weight": np.ones((2, 3))}
        descend(model, grads, 0.25)
        for name, p in model.named_params():
            np.testing.assert_array_equal(before[name], snapshot[name], err_msg=name)
            if name in grads:
                assert p is not before[name]
                np.testing.assert_array_equal(p, snapshot[name] - 0.25 * grads[name])
            else:
                assert p is before[name], name

    @pytest.mark.parametrize("lr", [1.0, 0.25, 3e-5, 1e-3 / 24])
    def test_step_bytes_equal_theta_minus_lr_g(self, lr):
        # one array per step (g * -lr, then theta added), or theta - g at
        # rate 1.0: both give theta - lr * g, signed zeros included
        model = build_model(L=5, k=2, d=3, n_blocks=2, seed=7)
        rng = np.random.default_rng(8)
        before = {n: p.copy() for n, p in model.named_params()}
        grads = {n: rng.standard_normal(p.shape) * 10.0 ** rng.integers(-8, 8, p.shape)
                 for n, p in before.items()}
        grads["head.bias"][:] = [0.0, -0.0]
        model.head.bias = before["head.bias"] = np.array([-0.0, 0.0])
        descend(model, grads, lr)
        for name, p in model.named_params():
            assert same_bytes(p, before[name] - lr * grads[name]), name

    def test_zero_lr_keeps_same_arrays(self):
        a = build_adapter(d=3, seed=2)
        before = a.named_params()
        descend(a, {n: np.ones_like(p) for n, p in before}, 0.0)
        assert all(p is q for (_, p), (_, q) in zip(before, a.named_params()))

    def test_gradient_taken_as_float64(self):
        model = build_model(L=5, k=2, d=3, n_blocks=1, seed=3)
        w = model.head.weight.copy()
        descend(model, {"head.weight": [[1, 2, 3], [4, 5, 6]]}, 0.5)
        np.testing.assert_array_equal(model.head.weight,
                                      w - 0.5 * np.arange(1.0, 7.0).reshape(2, 3))

    @pytest.mark.parametrize("lr", [0.1, 0.0])
    def test_unknown_name_raises_before_anything_moves(self, lr):
        a = build_adapter(d=3, seed=4)
        before = a.named_params()
        grads = {"out.bias": np.ones(3), "hiden.weight": np.ones((3, 3))}
        with pytest.raises(ValueError, match="no parameter named hiden.weight"):
            sgd_step(a, grads, lr)
        assert all(p is q for (_, p), (_, q) in zip(before, a.named_params()))

    def test_model_step_names_each_unknown_key(self):
        model = build_model(L=5, k=2, d=3, n_blocks=1, seed=5)
        with pytest.raises(ValueError,
                           match="no parameter named blocks.3.bias, out.weight"):
            apply_param_step(model, {"out.weight": np.ones((2, 3)),
                                     "blocks.3.bias": np.ones(3)}, 0.1)

    @pytest.mark.parametrize("lr", [float("nan"), float("inf"), -1.0])
    def test_rate_outside_zero_to_inf_raises(self, lr):
        a = build_adapter(d=3, seed=6)
        before = a.named_params()
        with pytest.raises(ValueError, match="lr must be >= 0 and finite"):
            sgd_step(a, {n: np.ones_like(p) for n, p in before}, lr)
        assert all(p is q for (_, p), (_, q) in zip(before, a.named_params()))


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

    @given(st.data())
    @settings(max_examples=200, deadline=None)
    def test_loss_bytes_equal_numpy_mean(self, data):
        pred = data.draw(reduction_inputs())
        target = data.draw(reduction_inputs(*map(st.just, pred.shape)))
        with np.errstate(all="ignore"):          # the inf cells and 1e8 squares
            loss, _ = mse_with_grad(pred, target)
            diff = pred - target
            want = float(np.mean(diff * diff))
        assert same_bytes(loss, want)

    @given(small_mats())
    @settings(max_examples=30, deadline=None)
    def test_zero_at_perfect_prediction(self, x):
        val, grad = mse_with_grad(x, x.copy())
        assert val == 0.0
        np.testing.assert_array_equal(grad, np.zeros_like(x))

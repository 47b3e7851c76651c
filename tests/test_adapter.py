import numpy as np
import pytest

from driftcast import (AdapterNet, AdapterTape, adapter_backward_tape,
                       adapter_forward_with_tape, build_adapter, sgd_step)
from driftcast.diffmath import AffineLayer
from conftest import fd_grad, rel_err


def delta_oracle(a, z, hisgrad):
    """Loop-level re-derivation of the adapter forward."""
    rows = []
    for r in range(z.shape[0]):
        s = np.zeros(a.h)
        if a.use_feat:
            s += a.path_feat.weight @ z[r] + a.path_feat.bias
        if a.use_grad:
            s += a.path_grad.weight @ hisgrad[r] + a.path_grad.bias
        hh = a.hidden.weight @ np.maximum(s, 0.0) + a.hidden.bias
        rows.append(a.out.weight @ np.maximum(hh, 0.0) + a.out.bias)
    return np.array(rows)


def rand_inputs(d, C, seed):
    rng = np.random.default_rng(seed)
    return rng.standard_normal((C, d)), 0.1 * rng.standard_normal((C, d))


class TestForward:
    def test_fresh_adapter_is_exact_noop(self):
        a = build_adapter(d=6, seed=1)
        z, g = rand_inputs(6, 3, 2)
        delta, _ = adapter_forward_with_tape(a, z, g)
        np.testing.assert_array_equal(delta, np.zeros((3, 6)))

    def test_matches_loop_oracle_after_perturbation(self):
        a = build_adapter(d=4, h=5, seed=3)
        rng = np.random.default_rng(4)
        a.out.weight = rng.standard_normal(a.out.weight.shape)
        a.out.bias = rng.standard_normal(a.out.bias.shape)
        z, g = rand_inputs(4, 2, 5)
        delta, _ = adapter_forward_with_tape(a, z, g)
        np.testing.assert_allclose(delta, delta_oracle(a, z, g), atol=1e-12)

    def test_disabled_grad_path_ignores_hisgrad(self):
        a = build_adapter(d=4, use_grad=False, seed=6)
        rng = np.random.default_rng(7)
        a.out.weight = rng.standard_normal(a.out.weight.shape)
        z, g1 = rand_inputs(4, 3, 8)
        g2 = 100.0 + g1
        d1, _ = adapter_forward_with_tape(a, z, g1)
        d2, _ = adapter_forward_with_tape(a, z, g2)
        np.testing.assert_array_equal(d1, d2)

    def test_disabled_feat_path_ignores_feature(self):
        a = build_adapter(d=4, use_feat=False, seed=9)
        rng = np.random.default_rng(10)
        a.out.weight = rng.standard_normal(a.out.weight.shape)
        z1, g = rand_inputs(4, 3, 11)
        d1, _ = adapter_forward_with_tape(a, z1, g)
        d2, _ = adapter_forward_with_tape(a, z1 - 42.0, g)
        np.testing.assert_array_equal(d1, d2)

    def test_both_paths_disabled_gives_input_independent_output(self):
        a = build_adapter(d=3, use_feat=False, use_grad=False, seed=12)
        z1, g1 = rand_inputs(3, 2, 13)
        z2, g2 = rand_inputs(3, 2, 14)
        d1, _ = adapter_forward_with_tape(a, z1, g1)
        d2, _ = adapter_forward_with_tape(a, z2, g2)
        np.testing.assert_array_equal(d1, d2)

    def test_shape_validation(self):
        a = build_adapter(d=4, seed=0)
        with pytest.raises(ValueError, match="width"):
            adapter_forward_with_tape(a, np.ones((2, 3)), np.ones((2, 4)))
        with pytest.raises(ValueError, match="row mismatch"):
            adapter_forward_with_tape(a, np.ones((2, 4)), np.ones((3, 4)))

    def test_width_validation_at_construction(self):
        rng = np.random.default_rng(1)
        # (out, in) of path_feat, path_grad, hidden, out; d=4, h=5 is valid
        cases = [
            (((5, 4), (5, 4), (5, 5), (3, 5)), "d -> d"),     # out must map back to d
            (((6, 4), (5, 4), (5, 5), (4, 5)), "path/hidden widths disagree"),
            (((5, 4), (5, 4), (5, 6), (4, 5)), "path/hidden widths disagree"),
            (((5, 4), (5, 4), (5, 5), (4, 6)), "out layer in_dim != hidden width"),
        ]
        for shapes, match in cases:
            layers = [AffineLayer.seeded(o, i, rng) for o, i in shapes]
            with pytest.raises(ValueError, match=match):
                AdapterNet(*layers)


class TestBackward:
    def _trained_adapter(self, seed, **flags):
        a = build_adapter(d=4, h=5, seed=seed, **flags)
        rng = np.random.default_rng(seed + 100)
        a.out.weight = 0.5 * rng.standard_normal(a.out.weight.shape)
        a.out.bias = 0.1 * rng.standard_normal(a.out.bias.shape)
        return a

    @pytest.mark.parametrize("flags", [
        {}, {"use_grad": False}, {"use_feat": False}])
    def test_param_grads_match_fd(self, flags):
        a = self._trained_adapter(20, **flags)
        z, g = rand_inputs(4, 3, 21)
        rng = np.random.default_rng(22)
        weight = rng.standard_normal((3, 4))

        def loss():
            delta, _ = adapter_forward_with_tape(a, z, g)
            return float(np.sum(delta * weight))

        _, tape = adapter_forward_with_tape(a, z, g)
        grads = adapter_backward_tape(tape, weight)
        off = {"path_feat": not a.use_feat, "path_grad": not a.use_grad}
        for name, arr in a.named_params():
            if name in grads:
                assert rel_err(grads[name], fd_grad(loss, arr)) < 1e-5, name
            else:   # only a path that is off goes unnamed, and its gradient is 0
                assert off.get(name.split(".")[0]), name
                assert not fd_grad(loss, arr).any(), name

    def test_disabled_path_grads_are_zero(self):
        # a path that is off has no entry, so a step leaves it as it is
        a = self._trained_adapter(30, use_grad=False)
        z, g = rand_inputs(4, 2, 31)
        _, tape = adapter_forward_with_tape(a, z, g)
        grads = adapter_backward_tape(tape, np.ones((2, 4)))
        assert "path_grad.weight" not in grads and "path_grad.bias" not in grads
        assert np.any(grads["path_feat.weight"] != 0.0)

    def test_backward_uses_snapshots_not_live_weights(self):
        a = self._trained_adapter(40)
        z, g = rand_inputs(4, 2, 41)
        _, tape = adapter_forward_with_tape(a, z, g)
        expect = adapter_backward_tape(tape, np.ones((2, 4)))
        # move the live adapter, then backprop through the old tape again
        sgd_step(a, {n: np.ones_like(p) for n, p in a.named_params()}, 0.5)
        redo = adapter_backward_tape(tape, np.ones((2, 4)))
        for name in expect:
            np.testing.assert_array_equal(expect[name], redo[name])

    def test_zero_input_uses_zero_subgradient(self):
        # ReLU inputs of exactly 0 pass no gradient: hh gates the hidden
        # layer, s gates both input paths
        tape = AdapterTape(z=np.ones((1, 1)), hisgrad=np.ones((1, 1)),
                           s=np.array([[0.0, -1.0, 2.0]]),
                           r1=np.array([[0.0, 0.0, 2.0]]),
                           hh=np.array([[1.0, 0.0, 1.0]]),
                           r2=np.array([[1.0, 0.0, 1.0]]),
                           w_hidden=np.eye(3), w_out=np.ones((1, 3)),
                           use_feat=True, use_grad=True)
        grads = adapter_backward_tape(tape, np.ones((1, 1)))
        np.testing.assert_array_equal(grads["hidden.bias"], [1.0, 0.0, 1.0])
        np.testing.assert_array_equal(grads["path_feat.bias"], [0.0, 0.0, 1.0])
        np.testing.assert_array_equal(grads["path_grad.bias"], [0.0, 0.0, 1.0])


class TestSgdStep:
    def test_single_step_formula(self):
        a = build_adapter(d=3, seed=60)
        before = {n: p.copy() for n, p in a.named_params()}
        grads = {n: np.full_like(p, 2.0) for n, p in a.named_params()}
        sgd_step(a, grads, 0.25)
        for n, p in a.named_params():
            np.testing.assert_allclose(p, before[n] - 0.5, atol=1e-15)

    def test_zero_lr_keeps_same_arrays(self):
        a = build_adapter(d=3, seed=61)
        w = a.hidden.weight
        sgd_step(a, {"hidden.weight": np.ones_like(w)}, 0.0)
        assert a.hidden.weight is w

    def test_step_allocates_fresh_arrays(self):
        a = build_adapter(d=3, seed=62)
        old = a.hidden.weight
        snapshot = old.copy()
        sgd_step(a, {"hidden.weight": np.ones_like(old)}, 0.1)
        np.testing.assert_array_equal(old, snapshot)
        assert a.hidden.weight is not old


class TestPersistence:
    def test_round_trip_bit_exact(self):
        a = build_adapter(d=5, h=7, use_grad=False, seed=70)
        rng = np.random.default_rng(71)
        a.out.weight = rng.standard_normal(a.out.weight.shape)
        b = a.clone()
        assert (b.d, b.h, b.use_feat, b.use_grad) == (5, 7, True, False)
        for (na, pa), (nb, pb) in zip(a.named_params(), b.named_params()):
            assert na == nb
            np.testing.assert_array_equal(pa, pb)
            assert pa is not pb

    def test_clone_is_deep(self):
        a = build_adapter(d=3, seed=80)
        b = a.clone()
        b.path_feat.weight[0, 0] += 1.0
        assert a.path_feat.weight[0, 0] != b.path_feat.weight[0, 0]

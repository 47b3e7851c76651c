import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from driftcast import (NormStats, Sample, build_model, normalize,
                       offline_train, predict)
from driftcast.diffmath import AffineLayer, mse_with_grad
from driftcast.engine import CHUNK
from driftcast.forecaster import (STD_EPS, ForecastModel, WindowSplit, _backward,
                                  _forward, apply_param_step, denormalize, encode,
                                  grad_wrt_feature, grad_wrt_last_layer,
                                  head_forward_with_tape, param_grads,
                                  predict_with_tape)
from conftest import fd_grad, reduction_inputs, rel_err, same_bytes

finite = st.floats(-5, 5, allow_nan=False, allow_infinity=False, width=64)


def forward_oracle(model, x):
    """Loop-level re-derivation of the forward pass, no shared code paths."""
    x = np.asarray(x, dtype=float)
    mean = x.mean(axis=0)
    std = np.maximum(x.std(axis=0), STD_EPS)
    C = x.shape[1]
    k = model.k
    y_hat = np.zeros((k, C))
    for c in range(C):
        h = (x[:, c] - mean[c]) / std[c]
        for i, blk in enumerate(model.blocks):
            if i > 0:
                h = np.maximum(h, 0.0)
            h = np.array([h @ blk.weight[o] + blk.bias[o]
                          for o in range(blk.weight.shape[0])])
        out = np.array([h @ model.head.weight[o] + model.head.bias[o]
                        for o in range(k)])
        y_hat[:, c] = out * std[c] + mean[c]
    return y_hat


class TestNormalize:
    def test_two_point_window_hits_unit_interval(self):
        xn, stats = normalize(np.array([[0.0], [2.0]]))
        np.testing.assert_allclose(xn, [[-1.0], [1.0]])
        assert stats.mean[0] == 1.0 and stats.std[0] == 1.0

    def test_constant_channel_clamped(self):
        xn, stats = normalize(np.full((5, 2), 3.0))
        assert np.all(stats.std == STD_EPS)
        np.testing.assert_array_equal(xn, np.zeros((5, 2)))

    def test_short_window_rejected(self):
        with pytest.raises(ValueError, match="at least 2"):
            normalize(np.ones((1, 3)))

    @given(arrays(np.float64, shape=st.tuples(st.integers(2, 12), st.integers(1, 4)),
                  elements=finite))
    @settings(max_examples=60, deadline=None)
    def test_round_trip(self, x):
        xn, stats = normalize(x)
        np.testing.assert_allclose(denormalize(xn, stats), x, atol=1e-10)

    def test_population_std_not_sample_std(self):
        x = np.array([[0.0], [1.0], [2.0]])
        _, stats = normalize(x)
        assert stats.std[0] == pytest.approx(np.sqrt(2.0 / 3.0))

    @given(reduction_inputs())
    @settings(max_examples=200, deadline=None)
    def test_bytes_equal_numpy_mean_and_std(self, x):
        with np.errstate(all="ignore"):          # the inf cell and 1e8 squares
            xn, stats = normalize(x)
            mean = x.mean(axis=0)
            std = np.maximum(x.std(axis=0), STD_EPS)
            want = (x - mean) / std
        assert same_bytes(stats.mean, mean)
        assert same_bytes(stats.std, std)
        assert same_bytes(xn, want)

    @given(st.integers(1, 3 * CHUNK + 2), st.integers(2, 24), st.integers(1, 16),
           st.data())
    @settings(max_examples=60, deadline=None)
    def test_stack_bytes_equal_each_window_and_numpy(self, n, L, C, data):
        # n from one window to past three of the stream loop's chunks
        x = data.draw(reduction_inputs(rows=st.just(n * L), cols=st.just(C)))
        x = x.reshape(n, L, C)
        if data.draw(st.booleans()):             # one constant channel of one window
            x[data.draw(st.integers(0, n - 1)), :, data.draw(st.integers(0, C - 1))] = \
                data.draw(st.sampled_from([0.0, 1e8, -3.5]))
        with np.errstate(all="ignore"):
            xn, stats = normalize(x)
            mean = x.mean(axis=1)
            std = np.maximum(x.std(axis=1), STD_EPS)
            want = (x - mean[:, None, :]) / std[:, None, :]
            windows = [normalize(w) for w in x]
        assert same_bytes(stats.mean, mean) and same_bytes(stats.std, std)
        assert same_bytes(xn, want)
        for i, (w_norm, w_stats) in enumerate(windows):
            assert same_bytes(xn[i], w_norm), i
            assert same_bytes(stats.mean[i], w_stats.mean), i
            assert same_bytes(stats.std[i], w_stats.std), i

    @given(st.integers(1, 6), st.integers(2, 24), st.integers(1, 16), st.data())
    @settings(max_examples=60, deadline=None)
    def test_bytes_depend_on_values_not_memory_layout(self, n, L, C, data):
        x = data.draw(reduction_inputs(rows=st.just(n * L), cols=st.just(C)))
        x = x.reshape(n, L, C)
        mixed = [np.asfortranarray(w) if data.draw(st.booleans()) else w for w in x]
        # a split's lookbacks: overlapping windows, strided views of one series
        series = data.draw(reduction_inputs(rows=st.just(n + L), cols=st.just(C)))
        looks = WindowSplit(series, L, 1, L - 1, L - 1 + n).lookbacks()
        stacks = [np.stack(mixed), np.asfortranarray(x),
                  # an (n x C x L) C-ordered array seen as (n x L x C)
                  np.ascontiguousarray(x.transpose(0, 2, 1)).transpose(0, 2, 1),
                  looks, looks[data.draw(st.integers(0, n - 1)):]]
        with np.errstate(all="ignore"):
            for i, w in enumerate(x):              # x is C-ordered
                w_norm, w_stats = normalize(w)
                for g_norm, g_stats in (normalize(mixed[i]),
                                        normalize(np.asfortranarray(w))):
                    assert same_bytes(g_norm, w_norm), i
                    assert same_bytes(g_stats.mean, w_stats.mean), i
                    assert same_bytes(g_stats.std, w_stats.std), i
            for j, stack in enumerate(stacks):
                xn, stats = normalize(stack)
                for i, w in enumerate(stack):
                    w_norm, w_stats = normalize(np.ascontiguousarray(w))
                    assert same_bytes(xn[i], w_norm), (j, i)
                    assert same_bytes(stats.mean[i], w_stats.mean), (j, i)
                    assert same_bytes(stats.std[i], w_stats.std), (j, i)

    @pytest.mark.parametrize("shape", [(4,), (1, 2, 3, 4)])
    def test_neither_window_nor_stack_rejected(self, shape):
        with pytest.raises(ValueError, match="must be 2-D"):
            normalize(np.ones(shape))


class TestForward:
    def test_matches_loop_oracle(self):
        rng = np.random.default_rng(3)
        model = build_model(L=6, k=3, d=4, n_blocks=3, seed=1)
        x = rng.standard_normal((6, 2))
        np.testing.assert_allclose(predict(model, x), forward_oracle(model, x),
                                   rtol=0, atol=1e-12)

    def test_single_block_model(self):
        rng = np.random.default_rng(4)
        model = build_model(L=5, k=2, d=3, n_blocks=1, seed=2)
        assert model.tap_index == 0
        x = rng.standard_normal((5, 1))
        np.testing.assert_allclose(predict(model, x), forward_oracle(model, x),
                                   atol=1e-12)

    def test_tap_choice_does_not_change_prediction(self):
        rng = np.random.default_rng(5)
        x = rng.standard_normal((8, 3))
        preds = []
        for tap in range(3):
            model = build_model(L=8, k=2, d=4, n_blocks=3, tap_index=tap, seed=9)
            preds.append(predict(model, x))
        np.testing.assert_array_equal(preds[0], preds[1])
        np.testing.assert_array_equal(preds[1], preds[2])

    def test_resume_from_tap_equals_full_pass(self):
        rng = np.random.default_rng(6)
        x = rng.standard_normal((8, 2))
        for tap in range(3):
            model = build_model(L=8, k=4, d=5, n_blocks=3, tap_index=tap, seed=3)
            x_norm, stats = normalize(x)
            z = encode(model, x_norm)
            resumed = head_forward_with_tape(model, z, stats)[0]
            np.testing.assert_array_equal(resumed, predict(model, x))
            np.testing.assert_array_equal(resumed,
                                          predict_with_tape(model, x_norm, stats)[0])

    def test_encode_z_is_full_pass_pre_at_tap(self):
        # encode stops at the tap; its z is the full pass's bytes, and so are
        # the stats of one normalize call and of another
        rng = np.random.default_rng(7)
        x = rng.standard_normal((8, 3))
        for tap in range(3):
            model = build_model(L=8, k=4, d=5, n_blocks=3, tap_index=tap, seed=4)
            x_norm, stats = normalize(x)
            z = encode(model, x_norm)
            _, full = predict_with_tape(model, *normalize(x))
            assert full.start == 0 and len(full.pre) == 3
            assert z.tobytes() == full.pre[tap].tobytes()
            assert stats.mean.tobytes() == full.stats.mean.tobytes()
            assert stats.std.tobytes() == full.stats.std.tobytes()

    @pytest.mark.parametrize("C", [2, 16])
    def test_strided_window_bytes_equal_its_contiguous_copy(self, C):
        # a side-by-side stack hands out (L x C) windows with row stride n*C;
        # the passes take them through the same BLAS call as a C-ordered copy
        rng = np.random.default_rng(C)
        model = build_model(L=96, k=24, d=64, n_blocks=3, seed=2)
        xn, stats = normalize(rng.standard_normal((CHUNK, 96, C)))
        for i in (0, CHUNK // 2, CHUNK - 1):
            window, copy = xn[i], np.ascontiguousarray(xn[i])
            assert window.strides == (CHUNK * C * 8, 8)
            row = NormStats(stats.mean[i], stats.std[i])
            assert same_bytes(encode(model, window),
                              encode(model, copy))
            (y_w, tape_w), (y_c, tape_c) = (predict_with_tape(model, w, row)
                                            for w in (window, copy))
            assert same_bytes(y_w, y_c)
            g_y = rng.standard_normal(y_w.shape)
            grads_w = param_grads(model, tape_w, g_y)
            grads_c = param_grads(model, tape_c, g_y)
            assert grads_w.keys() == grads_c.keys()
            for name in grads_w:
                assert same_bytes(grads_w[name], grads_c[name]), name

    def test_default_tap_is_second_last_block(self):
        assert build_model(4, 1, d=2, n_blocks=3, seed=0).tap_index == 1
        assert build_model(4, 1, d=2, n_blocks=1, seed=0).tap_index == 0

    def test_wrong_lookback_rejected(self):
        model = build_model(L=6, k=2, d=3, seed=0)
        with pytest.raises(ValueError, match="expects L=6"):
            predict(model, np.ones((5, 2)))

    def test_bad_architecture_rejected(self):
        rng = np.random.default_rng(0)
        b0 = AffineLayer.seeded(3, 4, rng)
        b1 = AffineLayer.seeded(3, 5, rng)  # in_dim mismatch
        head = AffineLayer.seeded(2, 3, rng)
        with pytest.raises(ValueError, match="block 1 in_dim != block 0 out_dim"):
            ForecastModel([b0, b1], head, L=4, k=2)
        with pytest.raises(ValueError, match="horizon"):
            ForecastModel([b0], AffineLayer.seeded(5, 3, rng), L=4, k=2)


class TestGradients:
    def _setup(self, seed, tap=None):
        rng = np.random.default_rng(seed)
        model = build_model(L=7, k=3, d=4, n_blocks=3, tap_index=tap,
                            seed=seed + 1)
        x = rng.standard_normal((7, 2))
        y = rng.standard_normal((3, 2))
        return model, x, y

    def test_feature_grad_matches_fd(self):
        for tap in (0, 1, 2):
            model, x, y = self._setup(10 + tap, tap)
            x_norm, stats = normalize(x)
            z = encode(model, x_norm)
            y_hat, tape = head_forward_with_tape(model, z, stats)
            _, g_yhat = mse_with_grad(y_hat, y)
            analytic = grad_wrt_feature(model, tape, g_yhat)

            def loss():
                return mse_with_grad(head_forward_with_tape(model, z, stats)[0], y)[0]

            assert rel_err(analytic, fd_grad(loss, z)) < 1e-5

    def test_feature_grad_affine_tap_hand_formula(self):
        # tap at the last block: resume path is the head alone, so the
        # gradient is just (g_yhat * std)^T @ W_head
        model, x, y = self._setup(20, tap=2)
        x_norm, stats = normalize(x)
        z = encode(model, x_norm)
        y_hat, tape = head_forward_with_tape(model, z, stats)
        _, g_yhat = mse_with_grad(y_hat, y)
        hand = (g_yhat * stats.std).T @ model.head.weight
        np.testing.assert_allclose(grad_wrt_feature(model, tape, g_yhat), hand,
                                   atol=1e-14)

    def test_last_layer_grad_matches_fd(self):
        model, x, y = self._setup(30)
        x_norm, stats = normalize(x)
        z = encode(model, x_norm)
        y_hat, tape = head_forward_with_tape(model, z, stats)
        _, g_yhat = mse_with_grad(y_hat, y)
        gw, gb = grad_wrt_last_layer(model, tape, g_yhat)

        def loss():
            return mse_with_grad(head_forward_with_tape(model, z, stats)[0], y)[0]

        assert rel_err(gw, fd_grad(loss, model.head.weight)) < 1e-5
        assert rel_err(gb, fd_grad(loss, model.head.bias)) < 1e-5

    def test_param_grads_match_fd_everywhere(self):
        model, x, y = self._setup(40)
        y_hat, tape = predict_with_tape(model, *normalize(x))
        _, g_yhat = mse_with_grad(y_hat, y)
        grads = param_grads(model, tape, g_yhat)

        def loss():
            return mse_with_grad(predict(model, x), y)[0]

        for name, arr in model.named_params():
            assert rel_err(grads[name], fd_grad(loss, arr)) < 1e-5, name

    def test_grads_require_tape(self):
        model, x, y = self._setup(50)
        with pytest.raises(ValueError):
            grad_wrt_feature(model, None, np.zeros((3, 2)))
        with pytest.raises(ValueError):
            param_grads(model, None, np.zeros((3, 2)))

    def test_param_grads_reject_tape_resumed_from_tap(self):
        # a resumed pass never ran the blocks up to the tap
        model, x, y = self._setup(60)
        x_norm, stats = normalize(x)
        z = encode(model, x_norm)
        y_hat, tape = head_forward_with_tape(model, z, stats)
        _, g_yhat = mse_with_grad(y_hat, y)
        with pytest.raises(ValueError, match="starts at block 2"):
            param_grads(model, tape, g_yhat)

    def test_feature_grad_same_from_full_and_resumed_tape(self):
        for tap in (0, 1, 2):
            model, x, y = self._setup(70 + tap, tap)
            _, full = predict_with_tape(model, *normalize(x))
            x_norm, stats = normalize(x)
            z = encode(model, x_norm)
            y_hat, tape = head_forward_with_tape(model, z, stats)
            _, g_yhat = mse_with_grad(y_hat, y)
            np.testing.assert_array_equal(grad_wrt_feature(model, full, g_yhat),
                                          grad_wrt_feature(model, tape, g_yhat))


class TestParamStep:
    def test_zero_lr_is_identity(self):
        model = build_model(L=4, k=1, d=3, seed=1)
        before = [arr.copy() for _, arr in model.named_params()]
        apply_param_step(model, {n: np.ones_like(a) for n, a in model.named_params()}, 0.0)
        for (_, arr), old in zip(model.named_params(), before):
            np.testing.assert_array_equal(arr, old)

    def test_step_leaves_old_arrays_intact(self):
        model = build_model(L=4, k=1, d=3, seed=2)
        ref = model.head.weight  # what a tape would hold
        snapshot = ref.copy()
        grads = {"head.weight": np.ones_like(ref)}
        apply_param_step(model, grads, 0.1)
        np.testing.assert_array_equal(ref, snapshot)
        np.testing.assert_allclose(model.head.weight, snapshot - 0.1)

    def test_two_half_steps_equal_one_full_step(self):
        m1 = build_model(L=4, k=2, d=3, seed=3)
        m2 = m1.clone()
        grads = {n: np.full_like(a, 0.25) for n, a in m1.named_params()}
        apply_param_step(m1, grads, 0.2)
        apply_param_step(m2, grads, 0.1)
        apply_param_step(m2, grads, 0.1)
        for (_, a), (_, b) in zip(m1.named_params(), m2.named_params()):
            np.testing.assert_allclose(a, b, atol=1e-15)


def offline_train_oracle(model, samples, epochs, lr, batch, seed):
    """The fit with every window normalized on its own, all before the first
    epoch, and each batch's rows stacked window by window from those."""
    out = model.clone()
    normed = [normalize(s.x) for s in samples]
    rng = np.random.default_rng(seed)
    for _ in range(epochs):
        order = rng.permutation(len(samples))
        for lo in range(0, len(samples), batch):
            idx = order[lo:lo + batch]
            rows = np.vstack([normed[j][0].T for j in idx])
            targ = np.vstack([np.asarray(samples[j].y, dtype=np.float64).T
                              for j in idx])
            std_col = np.concatenate([normed[j][1].std for j in idx])[:, None]
            mean_col = np.concatenate([normed[j][1].mean for j in idx])[:, None]
            tape = _forward(out, rows, 0, None)
            _, g_y = mse_with_grad(tape.y_norm * std_col + mean_col, targ)
            grads = {}
            _backward(tape, g_y * std_col, 0, grads)
            apply_param_step(out, grads, lr)
    return out


def windows_of(series, L, k):
    """Every (L, k) sample of a (T x C) series, in time order."""
    return [Sample(x=series[o - L + 1:o + 1], y=series[o + 1:o + 1 + k], origin=o)
            for o in range(L - 1, len(series) - k)]


class TestOfflineTrain:
    def _one_sample(self, seed):
        rng = np.random.default_rng(seed)
        x = rng.standard_normal((5, 2))
        y = rng.standard_normal((2, 2))
        return Sample(x=x, y=y, origin=4)

    def test_single_step_matches_hand_oracle(self):
        model = build_model(L=5, k=2, d=3, n_blocks=2, seed=8)
        s = self._one_sample(60)
        lr = 0.01
        trained = offline_train(model, [s], epochs=1, lr=lr, batch=1, seed=0)

        # one batch of one sample: the update must be a single SGD step on
        # the plain prediction MSE, checked here via finite differences
        def loss():
            return mse_with_grad(predict(model, s.x), s.y)[0]

        for name, arr in model.named_params():
            g = fd_grad(loss, arr)
            expect = arr - lr * g
            got = dict(trained.named_params())[name]
            assert rel_err(expect, got) < 1e-6, name

    def test_loss_decreases_on_learnable_data(self):
        rng = np.random.default_rng(70)
        model = build_model(L=8, k=1, d=6, n_blocks=2, seed=9)
        samples = []
        series = np.cumsum(rng.standard_normal((220, 2)) * 0.1, axis=0)
        for o in range(7, 200):
            samples.append(Sample(x=series[o - 7:o + 1], y=series[o + 1:o + 2],
                                  origin=o))

        def total(m):
            return float(np.mean([mse_with_grad(predict(m, s.x), s.y)[0]
                                  for s in samples]))

        trained = offline_train(model, samples, epochs=5, lr=1e-2, batch=16,
                                seed=1)
        assert total(trained) < total(model)

    def test_zero_epochs_returns_equal_clone(self):
        model = build_model(L=5, k=2, d=3, seed=4)
        out = offline_train(model, [self._one_sample(80)], epochs=0)
        assert out is not model
        for (_, a), (_, b) in zip(model.named_params(), out.named_params()):
            np.testing.assert_array_equal(a, b)

    def test_same_seed_same_result(self):
        model = build_model(L=5, k=2, d=3, seed=4)
        samples = [self._one_sample(s) for s in range(90, 130)]
        a = offline_train(model, samples, epochs=2, batch=8, seed=5)
        b = offline_train(model, samples, epochs=2, batch=8, seed=5)
        for (_, pa), (_, pb) in zip(a.named_params(), b.named_params()):
            np.testing.assert_array_equal(pa, pb)

    def test_does_not_mutate_input_model(self):
        model = build_model(L=5, k=2, d=3, seed=4)
        before = [a.copy() for _, a in model.named_params()]
        offline_train(model, [self._one_sample(30)], epochs=2, batch=1, seed=0)
        for (_, a), old in zip(model.named_params(), before):
            np.testing.assert_array_equal(a, old)

    def test_empty_train_set_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            offline_train(build_model(L=5, k=2, d=3, seed=4), [], epochs=1)

    def test_negative_epochs_rejected(self):
        model = build_model(L=5, k=2, d=3, seed=4)
        with pytest.raises(ValueError, match="epochs must be >= 0"):
            offline_train(model, [self._one_sample(81)], epochs=-1)

    def test_empty_batch_rejected(self):
        model = build_model(L=5, k=2, d=3, seed=4)
        with pytest.raises(ValueError, match="batch >= 1, got 1, 0"):
            offline_train(model, [self._one_sample(82)], epochs=1, batch=0)


    @pytest.mark.parametrize("lr", [float("nan"), float("inf"), -1.0])
    def test_unusable_lr_rejected(self, lr):
        model = build_model(L=5, k=2, d=3, seed=4)
        with pytest.raises(ValueError, match="lr must be >= 0 and finite"):
            offline_train(model, [self._one_sample(83)], epochs=1, lr=lr)

    @given(st.integers(1, 16), st.integers(2, 24), st.integers(1, 4),
           st.integers(2, 8), st.integers(0, 3), st.data())
    @settings(max_examples=60, deadline=None)
    def test_params_bytes_equal_per_window_oracle(self, C, L, k, batch, full, data):
        # full batches, then a partial last one of r < batch samples
        n = full * batch + data.draw(st.integers(1, batch - 1))
        scale = data.draw(st.sampled_from([1e-3, 1.0, 1e3]))
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        series = np.cumsum(rng.standard_normal((n + L + k - 1, C)), axis=0) * scale
        if data.draw(st.booleans()):     # a channel constant over every window
            series[:, data.draw(st.integers(0, C - 1))] = scale
        samples = windows_of(series, L, k)
        assert len(samples) == n
        model = build_model(L=L, k=k, d=6, n_blocks=2, seed=data.draw(st.integers(0, 99)))
        lr = 1e-3 / scale ** 2           # steps of one size in every unit
        seed = data.draw(st.integers(0, 99))
        got = offline_train(model, samples, epochs=2, lr=lr, batch=batch, seed=seed)
        want = offline_train_oracle(model, samples, 2, lr, batch, seed)
        for (name, a), (_, b) in zip(got.named_params(), want.named_params()):
            assert same_bytes(a, b), name

    def test_normalized_data_held_is_bounded_by_batch(self):
        n, L, k, C = 2000, 96, 4, 16
        rng = np.random.default_rng(12)
        samples = windows_of(rng.standard_normal((n + L + k - 1, C)), L, k)
        model = build_model(L=L, k=k, d=8, n_blocks=2, seed=3)
        tracemalloc.start()
        try:
            offline_train(model, samples, epochs=1, lr=1e-3, batch=32, seed=1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # one normalized copy of the split would be n*L*C*8 B = 24.6 MB
        assert peak < n * L * C * 8 / 4, peak

    def _fit_rejects(self, samples, message):
        model = build_model(L=5, k=2, d=3, seed=4)
        with pytest.raises(ValueError, match=re.escape(message)):
            offline_train(model, samples, epochs=1, batch=2)

    def test_mixed_channel_counts_rejected(self):
        good = [self._one_sample(s) for s in range(84, 87)]
        odd = Sample(x=np.ones((5, 3)), y=np.ones((2, 3)), origin=11)
        self._fit_rejects(good[:2] + [odd] + good[2:],
                          "sample at origin 11: channel count changed: 3 != 2")

    def test_wrong_lookback_rejected(self):
        good = self._one_sample(87)
        bad = Sample(x=np.ones((6, 2)), y=good.y, origin=12)
        self._fit_rejects([good, bad], "sample at origin 12: x rows 6 != lookback 5")

    def test_wrong_horizon_rejected(self):
        good = self._one_sample(88)
        bad = Sample(x=good.x, y=np.ones((3, 2)), origin=13)
        self._fit_rejects([good, bad], "sample at origin 13: y shape (3, 2) != (2, 2)")

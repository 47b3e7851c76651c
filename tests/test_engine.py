import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from driftcast import (EngineConfig, RingCache, StepRecord, build_adapter,
                       build_model, compute_hisgrad, pretrain_adapter,
                       run_adaptz, run_fogd, run_method, run_ogd, run_ori,
                       write_trace_csv)
from driftcast import engine
from driftcast.adapter import adapter_backward_tape, adapter_forward_with_tape, sgd_step
from driftcast.diffmath import mse_with_grad
from driftcast.forecaster import (Sample, apply_param_step, encode,
                                  grad_wrt_feature, grad_wrt_last_layer,
                                  head_forward, head_forward_with_tape,
                                  param_grads, predict_with_tape)
from conftest import fd_grad, make_stream, rel_err

L, K, C, D = 6, 2, 2, 3


def small_cfg(**kw):
    base = dict(method="adaptz", horizon=K, lookback=L, hist_batch=2,
                lr_adapter=0.01, lr_head=0.001, lr_fogd=0.05, lr_ogd=0.001,
                seed=1)
    base.update(kw)
    return EngineConfig(**base).validated()


def small_model(seed=3):
    return build_model(L=L, k=K, d=D, n_blocks=3, seed=seed)


def live_adapter(seed=4, **flags):
    a = build_adapter(D, seed=seed, **flags)
    rng = np.random.default_rng(seed + 50)
    a.out.weight = 0.3 * rng.standard_normal(a.out.weight.shape)
    a.out.bias = 0.05 * rng.standard_normal(a.out.bias.shape)
    return a


def params_of(obj):
    return {n: p.copy() for n, p in obj.named_params()}


def assert_params_equal(before, obj):
    for n, p in obj.named_params():
        np.testing.assert_array_equal(before[n], p, err_msg=n)


class TestFrozenEquivalence:
    def test_all_methods_reduce_to_ori_with_learning_off(self):
        model = small_model()
        stream = make_stream(60, L, K, C, seed=10)
        cfg0 = small_cfg(lr_adapter=0.0, lr_head=0.0, lr_fogd=0.0, lr_ogd=0.0)
        ref = run_ori(model, stream, cfg0)
        others = [
            run_fogd(model, stream, cfg0),
            run_ogd(model, stream, cfg0),
            run_adaptz(model, build_adapter(D, seed=9), stream, cfg0),
        ]
        for tr in others:
            np.testing.assert_array_equal(ref.step_mse, tr.step_mse)
            for p, q in zip(ref.preds, tr.preds):
                np.testing.assert_array_equal(p, q)

    def test_freeze_online_flag_blocks_all_updates(self):
        model = small_model()
        a = live_adapter()
        stream = make_stream(40, L, K, C, seed=11)
        frozen = small_cfg(freeze_online=True)
        tr = run_adaptz(model, a, stream, frozen)
        assert_params_equal(params_of(model), tr.final_model)
        assert_params_equal(params_of(a), tr.final_adapter)
        # fogd's correction and ogd's parameters stay put, so both are ori
        ori = run_ori(model, stream, frozen)
        for run in (run_fogd, run_ogd):
            tr = run(model, stream, frozen)
            assert_params_equal(params_of(model), tr.final_model)
            np.testing.assert_array_equal(tr.step_mse, ori.step_mse)

    def test_freeze_online_still_differs_from_ori_via_hisgrad(self):
        # a live grad path reacts to the incoming hisgrad even when no
        # parameter moves, so the frozen run is not the ori run
        model = small_model()
        a = live_adapter()
        stream = make_stream(40, L, K, C, seed=12)
        frozen = run_adaptz(model, a, stream, small_cfg(freeze_online=True))
        ori = run_ori(model, stream, small_cfg())
        assert not np.array_equal(frozen.step_mse, ori.step_mse)


class TestSequencingOracles:
    def test_adaptz_matches_straight_line_replay(self):
        model = small_model()
        a0 = live_adapter()
        stream = make_stream(14, L, K, C, seed=20)
        b = 2
        cfg = small_cfg(hist_batch=b)
        trace = run_adaptz(model, a0, stream, cfg)

        # independent replay of the deployment loop, one line per algorithm
        # step: predict, cache, refresh hisgrad, then update
        m = model.clone()
        a = a0.clone()
        cached = {}
        hisgrad = None
        mses = []
        for s, sample in enumerate(stream):
            z, stats, _ = encode(m, sample.x)
            if hisgrad is None:
                hisgrad = np.zeros_like(z)
            delta, atape = adapter_forward_with_tape(a, z, hisgrad)
            yhat, htape = head_forward_with_tape(m, z + delta, stats)
            mses.append(mse_with_grad(yhat, sample.y)[0])
            cached[s] = (z, stats, sample.y, yhat, htape, atape)
            if s >= K + b - 1:
                window = range(s - K - b + 1, s - K + 1)
                per_rec = []
                for i in window:
                    zi, sti, yi = cached[i][0], cached[i][1], cached[i][2]
                    yh_i, tape_i = head_forward_with_tape(m, zi, sti)
                    g = 2.0 * (yh_i - yi) / (K * C)
                    per_rec.append(grad_wrt_feature(m, tape_i, g))
                hisgrad = np.mean(per_rec, axis=0)
            else:
                hisgrad = np.zeros_like(z)
            if s >= K + b - 1:
                a_grads = {}
                gw = gb = None
                for i in range(s - K - b + 1, s - K + 1):
                    _, sti, yi, yh_i, ht_i, at_i = cached[i]
                    g_y = mse_with_grad(yh_i, yi)[1] / b
                    w_, b_ = grad_wrt_last_layer(m, ht_i, g_y)
                    gw = w_ if gw is None else gw + w_
                    gb = b_ if gb is None else gb + b_
                    g_z = grad_wrt_feature(m, ht_i, g_y)
                    for name, g in adapter_backward_tape(at_i, g_z).items():
                        a_grads[name] = g if name not in a_grads else a_grads[name] + g
                sgd_step(a, a_grads, cfg.lr_adapter)
                m.head.weight = m.head.weight - cfg.lr_head * gw
                m.head.bias = m.head.bias - cfg.lr_head * gb

        np.testing.assert_allclose(trace.step_mse, mses, rtol=0, atol=1e-12)
        for n, p in trace.final_adapter.named_params():
            np.testing.assert_allclose(dict(a.named_params())[n], p, atol=1e-14,
                                       err_msg=n)
        np.testing.assert_allclose(trace.final_model.head.weight, m.head.weight,
                                   atol=1e-15)

    def test_fogd_matches_straight_line_replay(self):
        model = small_model()
        stream = make_stream(12, L, K, C, seed=21)
        cfg = small_cfg(method="fogd")
        trace = run_fogd(model, stream, cfg)

        delta = None
        cached = {}
        mses = []
        for s, sample in enumerate(stream):
            z, stats, _ = encode(model, sample.x)
            if delta is None:
                delta = np.zeros_like(z)
            yhat, htape = head_forward_with_tape(model, z + delta, stats)
            mses.append(mse_with_grad(yhat, sample.y)[0])
            cached[s] = (yhat, sample.y, htape)
            if s >= K:
                yh_o, y_o, tape_o = cached[s - K]
                g_y = mse_with_grad(yh_o, y_o)[1]
                delta = delta - cfg.lr_fogd * grad_wrt_feature(model, tape_o, g_y)
        np.testing.assert_array_equal(trace.step_mse, np.asarray(mses))

    def test_ogd_matches_straight_line_replay(self):
        model = small_model()
        stream = make_stream(12, L, K, C, seed=22)
        cfg = small_cfg(method="ogd", lr_ogd=0.002)
        trace = run_ogd(model, stream, cfg)

        m = model.clone()
        cached = {}
        mses = []
        for s, sample in enumerate(stream):
            z, stats, _ = encode(m, sample.x)
            yhat = head_forward(m, z, stats)
            mses.append(mse_with_grad(yhat, sample.y)[0])
            cached[s] = sample
            if s >= K:
                old = cached[s - K]
                yh_o, ftape = predict_with_tape(m, old.x)
                g_y = mse_with_grad(yh_o, old.y)[1]
                apply_param_step(m, param_grads(m, ftape, g_y), cfg.lr_ogd)
        np.testing.assert_array_equal(trace.step_mse, np.asarray(mses))
        for n, p in trace.final_model.named_params():
            np.testing.assert_array_equal(dict(m.named_params())[n], p, err_msg=n)


def replay_adaptz(model, adapter_net, stream, cfg):
    """Reference adaptz loop that backpropagates every record again in each
    window it enters, summing the gradients per parameter name."""
    m = model.clone()
    a = adapter_net.clone()
    k, b = m.k, cfg.hist_batch
    cache = RingCache(k + b + 2)
    hisgrad = None
    mses = []
    for s, sample in enumerate(stream):
        z, stats, _ = encode(m, sample.x)
        if hisgrad is None:
            hisgrad = np.zeros_like(z)
        delta, a_tape = adapter_forward_with_tape(a, z, hisgrad)
        yhat, h_tape = head_forward_with_tape(m, z + delta, stats)
        mses.append(mse_with_grad(yhat, sample.y)[0])
        cache.put(s, StepRecord(y=sample.y, z=z, yhat=yhat, stats=stats,
                                head_tape=h_tape, adapter_tape=a_tape))
        if s < k + b - 1:                   # hisgrad stays zero until then
            continue
        hisgrad = compute_hisgrad(m, cache, s, k, b)
        a_grads = {}
        gw = gb = None
        for i in range(s - k - b + 1, s - k + 1):
            rec = cache.get(i)
            g_y = mse_with_grad(rec.yhat, rec.y)[1] / b
            if cfg.lr_head > 0:
                w_, b_ = grad_wrt_last_layer(m, rec.head_tape, g_y)
                gw = w_ if gw is None else gw + w_
                gb = b_ if gb is None else gb + b_
            if cfg.lr_adapter > 0:
                g_z = grad_wrt_feature(m, rec.head_tape, g_y)
                for name, g in adapter_backward_tape(rec.adapter_tape, g_z).items():
                    a_grads[name] = g if name not in a_grads else a_grads[name] + g
        if cfg.lr_adapter > 0:
            sgd_step(a, a_grads, cfg.lr_adapter)
        if cfg.lr_head > 0:
            m.head.weight = m.head.weight - cfg.lr_head * gw
            m.head.bias = m.head.bias - cfg.lr_head * gb
    return np.asarray(mses), m, a


def assert_same_bytes(ref_objs, objs):
    for ref, obj in zip(ref_objs, objs):
        for (n, p), (_, q) in zip(ref.named_params(), obj.named_params()):
            assert p.tobytes() == q.tobytes(), n


class TestStoredShares:
    @pytest.mark.parametrize("k, n, kw, flags", [
        (K, 30, {}, {}),
        (K, 30, dict(lr_head=0.0), {}),
        (K, 30, dict(lr_adapter=0.0), {}),
        (K, 30, {}, dict(use_feat=False)),
        (K, 30, {}, dict(use_grad=False)),
        (K, 30, dict(hist_batch=1), {}),
        (1, 30, {}, {}),
        (K, 3, {}, {}),                      # shorter than k + b - 1
    ], ids=["head+adapter", "lr_head0", "lr_adapter0", "no_feat", "no_grad",
            "b1", "k1", "short"])
    def test_bit_identical_to_rebackprop_replay(self, k, n, kw, flags):
        model = build_model(L=L, k=k, d=D, n_blocks=3, seed=3)
        a = live_adapter(**flags)
        stream = make_stream(n, L, k, C, seed=90)
        # b = 3 so that a changed summation order shows in the bytes
        cfg = small_cfg(**{"horizon": k, "hist_batch": 3, **kw})
        trace = run_adaptz(model, a, stream, cfg)
        mses, m_ref, a_ref = replay_adaptz(model, a, stream, cfg)
        assert trace.step_mse.tobytes() == mses.tobytes()
        assert_same_bytes((m_ref, a_ref), (trace.final_model, trace.final_adapter))

    def test_each_record_backpropagated_once(self, monkeypatch):
        calls = []

        def counted(tape, grad_delta):
            calls.append(1)
            return adapter_backward_tape(tape, grad_delta)

        monkeypatch.setattr(engine, "adapter_backward_tape", counted)
        k, b, n = K, 4, 25
        model = build_model(L=L, k=k, d=D, n_blocks=3, seed=3)
        stream = make_stream(n, L, k, C, seed=91)
        run_adaptz(model, live_adapter(), stream, small_cfg(hist_batch=b))
        assert len(calls) == n - k

    def test_pretrain_matches_rebackprop_replay(self, small_trained):
        trained, _, val, _ = small_trained
        a = build_adapter(trained.d, seed=8)
        out = pretrain_adapter(trained, a, val, epochs=2, lr=0.001, hist_batch=4)
        cfg = EngineConfig(method="adaptz", horizon=trained.k,
                           lookback=trained.L, hist_batch=4, lr_adapter=0.001,
                           lr_head=0.0).validated()
        ref = a
        for _ in range(2):
            _, _, ref = replay_adaptz(trained, ref, val, cfg)
        assert_same_bytes((ref,), (out,))


class TestAdapterFlags:
    @pytest.mark.parametrize("flag", ["use_feat", "use_grad"])
    def test_flags_the_adapter_was_built_with_choose_its_paths(self, flag):
        model = small_model()
        stream = make_stream(30, L, K, C, seed=95)
        cfg = small_cfg()
        # build_adapter draws every weight whatever the flags, so both
        # adapters hold the same weights
        off = run_adaptz(model, live_adapter(**{flag: False}), stream, cfg)
        both = run_adaptz(model, live_adapter(), stream, cfg)
        assert getattr(off.final_adapter, flag) is False
        assert off.step_mse.tobytes() != both.step_mse.tobytes()


class TestCausality:
    @pytest.mark.parametrize("method", ["ori", "fogd", "ogd", "adaptz"])
    def test_prefix_predictions_invariant_to_extension(self, method):
        model = small_model()
        stream = make_stream(40, L, K, C, seed=30)
        cfg = small_cfg()
        a = live_adapter()
        for m_cut in (5, 17, 33):
            adapter = a if method == "adaptz" else None
            short = run_method(method, model, adapter, stream[:m_cut], cfg)
            full = run_method(method, model, adapter, stream, cfg)
            np.testing.assert_array_equal(short.step_mse,
                                          full.step_mse[:m_cut])
            for p, q in zip(short.preds, full.preds[:m_cut]):
                np.testing.assert_array_equal(p, q)


@st.composite
def stream_shapes(draw):
    """(L, k, b, C, n) with n on both sides of the first full window k+b-1."""
    L, k = draw(st.integers(2, 8)), draw(st.integers(1, 4))
    b, C = draw(st.integers(1, 4)), draw(st.integers(1, 3))
    return L, k, b, C, draw(st.integers(1, k + b + 2))


def run_all(L, k, b, C, stream, adapter_net, **rates):
    model = build_model(L=L, k=k, d=D, n_blocks=3, seed=3)
    cfg = small_cfg(horizon=k, lookback=L, hist_batch=b, **rates)
    return {m: run_method(m, model, adapter_net, stream, cfg)
            for m in ("ori", "fogd", "ogd", "adaptz")}


class TestStreamShapeProperties:
    @given(stream_shapes())
    @settings(max_examples=50, deadline=None)
    def test_learning_off_reproduces_ori(self, shape):
        L, k, b, C, n = shape
        stream = make_stream(n, L, k, C, seed=n)
        runs = run_all(L, k, b, C, stream, build_adapter(D, seed=9),
                       lr_adapter=0.0, lr_head=0.0, lr_fogd=0.0, lr_ogd=0.0)
        ori = runs.pop("ori")
        for method, tr in runs.items():
            assert tr.step_mse.tobytes() == ori.step_mse.tobytes(), method
            assert [p.tobytes() for p in tr.preds] == \
                [p.tobytes() for p in ori.preds], method

    @given(stream_shapes(), st.data())
    @settings(max_examples=50, deadline=None)
    def test_prefix_run_is_prefix_of_longer_run(self, shape, data):
        L, k, b, C, n = shape
        m_cut = data.draw(st.integers(1, n))
        stream = make_stream(n, L, k, C, seed=n + 1)
        full = run_all(L, k, b, C, stream, live_adapter())
        short = run_all(L, k, b, C, stream[:m_cut], live_adapter())
        for method, tr in short.items():
            assert tr.step_mse.tobytes() == \
                full[method].step_mse[:m_cut].tobytes(), method
            assert [p.tobytes() for p in tr.preds] == \
                [p.tobytes() for p in full[method].preds[:m_cut]], method


class TestDelayAudit:
    def test_no_read_fresher_than_k_old(self):
        model = build_model(L=L, k=3, d=D, n_blocks=3, seed=3)
        stream = make_stream(50, L, 3, C, seed=40)
        cfg = small_cfg(horizon=3, hist_batch=4)
        a = live_adapter()
        for trace in (run_adaptz(model, a, stream, cfg),
                      run_fogd(model, stream, cfg),
                      run_ogd(model, stream, cfg)):
            assert trace.cache_reads, trace.method
            for reader, read in trace.cache_reads:
                assert read <= reader - 3, (trace.method, reader, read)

    def test_adaptz_reads_cover_window_exactly_twice(self):
        k, b = 2, 3
        model = build_model(L=L, k=k, d=D, n_blocks=3, seed=3)
        stream = make_stream(20, L, k, C, seed=41)
        trace = run_adaptz(model, live_adapter(), stream,
                           small_cfg(hist_batch=b))
        by_reader = {}
        for reader, read in trace.cache_reads:
            by_reader.setdefault(reader, []).append(read)
        for s in range(len(stream)):
            window = list(range(s - k - b + 1, s - k + 1))
            if s < k + b - 1:
                assert s not in by_reader
            else:
                assert sorted(by_reader[s]) == sorted(window * 2)


class TestDelayOwnedByLoop:
    def test_hisgrad_computed_from_first_full_window_on(self, monkeypatch):
        steps = []

        def spy(model, cache, t, k, b):
            steps.append(t)
            return compute_hisgrad(model, cache, t, k, b)

        monkeypatch.setattr(engine, "compute_hisgrad", spy)
        k, b, n = 2, 3, 20
        model = build_model(L=L, k=k, d=D, n_blocks=3, seed=3)
        stream = make_stream(n, L, k, C, seed=42)
        run_adaptz(model, live_adapter(), stream, small_cfg(hist_batch=b))
        assert steps == list(range(k + b - 1, n))

    @pytest.mark.parametrize("frozen", [dict(freeze_online=True),
                                        dict(lr_fogd=0.0, lr_ogd=0.0)],
                             ids=["freeze_online", "zero_rate"])
    def test_frozen_fogd_and_ogd_store_no_record(self, monkeypatch, frozen):
        puts = []

        class CountingCache(RingCache):
            def put(self, t, rec):
                puts.append(t)
                super().put(t, rec)

        monkeypatch.setattr(engine, "RingCache", CountingCache)
        model = small_model()
        stream = make_stream(12, L, K, C, seed=43)
        run_fogd(model, stream, small_cfg())
        assert puts, "the counting cache is not in use"
        puts.clear()
        for run in (run_fogd, run_ogd):
            trace = run(model, stream, small_cfg(**frozen))
            assert puts == [] and trace.cache_reads == [], trace.method

    def test_correct_sees_no_target_and_head_runs_once_per_step(self,
                                                                monkeypatch):
        seen, calls = [], []

        def correct(z, rec):
            seen.append(rec.y)
            return np.zeros_like(z)

        def counted(model, z_adj, stats):
            calls.append(1)
            return head_forward_with_tape(model, z_adj, stats)

        model = small_model()
        stream = make_stream(12, L, K, C, seed=44)
        ori = run_ori(model, stream, small_cfg())
        monkeypatch.setattr(engine, "head_forward_with_tape", counted)
        trace = engine._deploy("probe", model.clone(), stream, correct,
                               lambda s, cache: None, 1)
        assert seen == [None] * len(stream) and len(calls) == len(stream)
        assert trace.step_mse.tobytes() == ori.step_mse.tobytes()


class TestHisgrad:
    def _fill_cache(self, model, n, seed):
        cache = RingCache(capacity=50)
        stream = make_stream(n, L, K, C, seed=seed)
        for s, sample in enumerate(stream):
            z, stats, _ = encode(model, sample.x)
            cache.put(s, StepRecord(y=sample.y, z=z, stats=stats))
        return cache

    def test_window_before_step_zero_is_a_cache_miss(self):
        # the loop keeps hisgrad at zero until the first full window
        model = small_model()
        cache = self._fill_cache(model, 6, seed=50)
        for b in (1, 3):
            with pytest.raises(RuntimeError, match="cache miss for step -1"):
                compute_hisgrad(model, cache, K + b - 2, K, b)

    def test_empty_cache_rejected(self):
        with pytest.raises(RuntimeError, match="cache miss"):
            compute_hisgrad(small_model(), RingCache(4), 0, K, 1)

    def test_single_record_matches_fd(self):
        model = small_model()
        cache = self._fill_cache(model, 6, seed=51)
        t = K  # window is exactly record 0
        out = compute_hisgrad(model, cache, t, K, 1)
        rec = cache.get(0)
        z = rec.z.copy()

        def loss():
            return mse_with_grad(head_forward(model, z, rec.stats), rec.y)[0]

        assert rel_err(out, fd_grad(loss, z)) < 1e-5

    def test_window_average_of_identical_records(self):
        model = small_model()
        cache = RingCache(20)
        one = self._fill_cache(model, 1, seed=52).get(0)
        for s in range(6):
            cache.put(s, StepRecord(y=one.y, z=one.z, stats=one.stats))
        b = 4
        single = compute_hisgrad(model, cache, K, K, 1)
        window = compute_hisgrad(model, cache, K + b - 1, K, b)
        np.testing.assert_allclose(window, single, atol=1e-12)

    def test_general_window_is_mean_of_per_record_grads(self):
        model = small_model()
        cache = self._fill_cache(model, 8, seed=53)
        b = 3
        t = K + b - 1
        out = compute_hisgrad(model, cache, t, K, b)
        # recompute each record separately through a fresh single-record cache
        per = []
        for i in range(t - K - b + 1, t - K + 1):
            solo = RingCache(4)
            solo.put(0, cache.get(i))
            per.append(compute_hisgrad(model, solo, K, K, 1))
        np.testing.assert_allclose(out, np.mean(per, axis=0), atol=1e-12)

    def test_evaluated_under_current_parameters(self):
        model = small_model()
        cache = self._fill_cache(model, 6, seed=54)
        before = compute_hisgrad(model, cache, K, K, 1)
        moved = model.clone()
        apply_param_step(moved, {n: np.ones_like(p) * 0.05
                                 for n, p in moved.named_params()}, 1.0)
        after = compute_hisgrad(moved, cache, K, K, 1)
        assert not np.array_equal(before, after)
        rec = cache.get(0)
        z = rec.z.copy()

        def loss():
            return mse_with_grad(head_forward(moved, z, rec.stats), rec.y)[0]

        assert rel_err(after, fd_grad(loss, z)) < 1e-5


class TestParameterDiscipline:
    def test_adaptz_touches_only_head_and_adapter(self):
        model = small_model()
        a = live_adapter()
        stream = make_stream(30, L, K, C, seed=60)
        tr = run_adaptz(model, a, stream, small_cfg())
        for i, blk in enumerate(tr.final_model.blocks):
            np.testing.assert_array_equal(blk.weight, model.blocks[i].weight)
            np.testing.assert_array_equal(blk.bias, model.blocks[i].bias)
        assert not np.array_equal(tr.final_model.head.weight, model.head.weight)
        assert any(not np.array_equal(dict(a.named_params())[n], p)
                   for n, p in tr.final_adapter.named_params())

    def test_adaptz_zero_head_lr_freezes_whole_model(self):
        model = small_model()
        stream = make_stream(30, L, K, C, seed=61)
        tr = run_adaptz(model, live_adapter(), stream, small_cfg(lr_head=0.0))
        assert_params_equal(params_of(model), tr.final_model)

    def test_fogd_and_ori_never_touch_the_model(self):
        model = small_model()
        stream = make_stream(30, L, K, C, seed=62)
        for tr in (run_fogd(model, stream, small_cfg()),
                   run_ori(model, stream, small_cfg())):
            assert_params_equal(params_of(model), tr.final_model)

    def test_ogd_moves_every_parameter(self):
        model = small_model()
        stream = make_stream(30, L, K, C, seed=63)
        tr = run_ogd(model, stream, small_cfg(lr_ogd=0.01))
        for n, p in tr.final_model.named_params():
            assert not np.array_equal(dict(model.named_params())[n], p), n

    def test_input_objects_never_mutated(self):
        model = small_model()
        a = live_adapter()
        m_before, a_before = params_of(model), params_of(a)
        stream = make_stream(25, L, K, C, seed=64)
        run_adaptz(model, a, stream, small_cfg())
        run_ogd(model, stream, small_cfg(lr_ogd=0.01))
        assert_params_equal(m_before, model)
        assert_params_equal(a_before, a)


class TestPretrain:
    def test_changes_adapter_and_is_deterministic(self, small_trained):
        trained, _, val, _ = small_trained
        a = build_adapter(trained.d, seed=8)
        p1 = pretrain_adapter(trained, a, val, epochs=1, hist_batch=4)
        p2 = pretrain_adapter(trained, a, val, epochs=1, hist_batch=4)
        assert any(not np.array_equal(dict(a.named_params())[n], p)
                   for n, p in p1.named_params())
        assert_params_equal(params_of(p1), p2)

    def test_zero_epochs_is_identity_clone(self, small_trained):
        trained, _, val, _ = small_trained
        a = live_adapter()
        out = pretrain_adapter(trained, a, val, epochs=0, hist_batch=4)
        assert out is not a
        assert_params_equal(params_of(a), out)

    def test_epochs_compose(self, small_trained):
        trained, _, val, _ = small_trained
        a = build_adapter(trained.d, seed=8)
        two = pretrain_adapter(trained, a, val, epochs=2, hist_batch=4)
        one = pretrain_adapter(trained, a, val, epochs=1, hist_batch=4)
        again = pretrain_adapter(trained, one, val, epochs=1, hist_batch=4)
        assert_params_equal(params_of(two), again)

    def test_base_model_stays_frozen(self, small_trained):
        trained, _, val, _ = small_trained
        before = params_of(trained)
        pretrain_adapter(trained, build_adapter(trained.d, seed=8), val,
                         epochs=2, hist_batch=4)
        assert_params_equal(before, trained)


class TestValidation:
    def test_stream_must_be_in_time_order(self):
        model = small_model()
        stream = make_stream(10, L, K, C, seed=70)
        stream[5] = Sample(x=stream[5].x, y=stream[5].y,
                           origin=stream[4].origin)
        with pytest.raises(ValueError, match="out-of-order"):
            run_ori(model, stream, small_cfg())

    def test_sample_shapes_checked(self):
        model = small_model()
        good = make_stream(3, L, K, C, seed=71)
        bad_y = [Sample(x=good[0].x, y=good[0].y[:1], origin=0)]
        with pytest.raises(ValueError, match="y shape"):
            run_ori(model, bad_y, small_cfg())
        mixed = [good[0],
                 Sample(x=np.ones((L, C + 1)), y=np.ones((K, C + 1)), origin=9)]
        with pytest.raises(ValueError, match="channel count"):
            run_ori(model, mixed, small_cfg())

    def test_cfg_model_mismatch_rejected(self):
        model = small_model()
        with pytest.raises(ValueError, match="horizon"):
            run_ori(model, [], small_cfg(horizon=5))
        with pytest.raises(ValueError, match="lookback"):
            run_ori(model, [], small_cfg(lookback=12))

    def test_config_validation(self):
        with pytest.raises(ValueError, match="method"):
            small_cfg(method="sgd")
        with pytest.raises(ValueError):
            small_cfg(horizon=0)
        with pytest.raises(ValueError, match="lr_fogd"):
            small_cfg(lr_fogd=-0.1)

    def test_dispatch(self):
        model = small_model()
        stream = make_stream(5, L, K, C, seed=72)
        with pytest.raises(ValueError, match="adapter"):
            run_method("adaptz", model, None, stream, small_cfg())
        with pytest.raises(ValueError, match="unknown method"):
            run_method("mystery", model, None, stream, small_cfg())


class TestCacheAndTrace:
    def test_ring_cache_evicts_and_reports_misses(self):
        cache = RingCache(3)
        for t in range(6):
            cache.put(t, StepRecord(y=np.zeros((1, 1))))
        assert 2 not in cache and 3 in cache
        with pytest.raises(RuntimeError, match="cache miss for step 1"):
            cache.get(1)

    def test_trace_csv_layout_and_running_mean(self, tmp_path):
        model = small_model()
        stream = make_stream(8, L, K, C, seed=80)
        trace = run_ori(model, stream, small_cfg())
        path = str(tmp_path / "trace.csv")
        write_trace_csv(trace, path)
        lines = open(path).read().splitlines()
        assert lines[0] == "t,step_mse,cum_mse"
        assert len(lines) == 9
        sm = np.array([float(l.split(",")[1]) for l in lines[1:]])
        cm = np.array([float(l.split(",")[2]) for l in lines[1:]])
        np.testing.assert_allclose(cm, np.cumsum(sm) / np.arange(1, 9),
                                   rtol=1e-15)
        assert float(lines[3].split(",")[0]) == trace.steps[2]

    def test_trace_mse_is_mean_of_steps(self):
        model = small_model()
        stream = make_stream(9, L, K, C, seed=81)
        trace = run_ori(model, stream, small_cfg())
        assert trace.mse == pytest.approx(float(np.mean(trace.step_mse)),
                                          abs=1e-15)

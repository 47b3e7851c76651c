import re
import tracemalloc
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from driftcast import (EngineConfig, SeriesFrame, SplitSpec, build_adapter,
                       build_model, chrono_split, offline_train, pretrain_adapter,
                       run_adaptz, run_fogd, run_method, run_ogd, run_ori,
                       write_trace_csv)
from driftcast import engine, forecaster
from driftcast.engine import compute_hisgrad, hisgrad_terms
from driftcast.adapter import adapter_backward_tape, adapter_forward_with_tape, sgd_step
from driftcast.diffmath import mse_with_grad
from driftcast.forecaster import (STD_EPS, NormStats, Sample, WindowSplit,
                                  apply_param_step, encode, grad_wrt_feature,
                                  grad_wrt_last_layer, head_forward_with_tape,
                                  normalize, param_grads, predict_with_tape)
from conftest import (KINK_MARGIN, ar_series, fd_grad, make_stream,
                      reduction_inputs, rel_err, relu_margin, same_bytes)

L, K, C, D = 6, 2, 2, 3


def small_cfg(**kw):
    base = dict(method="adaptz", horizon=K, lookback=L, hist_batch=2,
                lr_adapter=0.01, lr_head=0.001, lr_fogd=0.05, lr_ogd=0.001,
                seed=1)
    base.update(kw)
    return EngineConfig(**base).validated()


def small_model(seed=3):
    return build_model(L=L, k=K, d=D, n_blocks=3, seed=seed)


def live_adapter(seed=4, d=D, **flags):
    a = build_adapter(d, seed=seed, **flags)
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

    def test_zero_rates_block_all_updates(self):
        model = small_model()
        a = live_adapter()
        stream = make_stream(40, L, K, C, seed=11)
        frozen = small_cfg(lr_adapter=0.0, lr_head=0.0, lr_fogd=0.0, lr_ogd=0.0)
        tr = run_adaptz(model, a, stream, frozen)
        assert_params_equal(params_of(model), tr.final_model)
        assert_params_equal(params_of(a), tr.final_adapter)
        # fogd's correction and ogd's parameters stay put, so both are ori
        ori = run_ori(model, stream, frozen)
        for run in (run_fogd, run_ogd):
            tr = run(model, stream, frozen)
            assert_params_equal(params_of(model), tr.final_model)
            np.testing.assert_array_equal(tr.step_mse, ori.step_mse)

    def test_zero_rates_still_differ_from_ori_via_hisgrad(self):
        # a live grad path reacts to the incoming hisgrad even when no
        # parameter moves, so the frozen run is not the ori run
        model = small_model()
        a = live_adapter()
        stream = make_stream(40, L, K, C, seed=12)
        frozen = run_adaptz(model, a, stream, small_cfg(lr_adapter=0.0, lr_head=0.0))
        ori = run_ori(model, stream, small_cfg())
        assert not np.array_equal(frozen.step_mse, ori.step_mse)


def replay_plain(method, model, stream, cfg):
    """ori, fogd or ogd written out step by step, each window normalized by
    its own normalize call (ogd's re-score by another one);
    returns the step losses, the predictions and the final model."""
    m = model.clone()
    delta, held, mses, preds = None, {}, [], []
    for s, sample in enumerate(stream):
        x_norm, stats = normalize(sample.x)
        z = encode(m, x_norm)
        if delta is None:
            delta = np.zeros_like(z)
        yhat, tape = head_forward_with_tape(m, z + delta if method == "fogd" else z,
                                            stats)
        loss, g_y = mse_with_grad(yhat, sample.y)
        mses.append(loss)
        preds.append(yhat)
        held[s] = (sample, tape, g_y)
        if method == "ori" or s < m.k:
            continue
        old, old_tape, old_g = held.pop(s - m.k)
        if method == "fogd":
            delta = delta - cfg.lr_fogd * grad_wrt_feature(m, old_tape, old_g)
        else:
            yh, ftape = predict_with_tape(m, *normalize(old.x))
            apply_param_step(m, param_grads(m, ftape, mse_with_grad(yh, old.y)[1]),
                             cfg.lr_ogd)
    return np.asarray(mses), preds, m


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
            x_norm, stats = normalize(sample.x)
            z = encode(m, x_norm)
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
        mses, _, _ = replay_plain("fogd", model, stream, cfg)
        np.testing.assert_array_equal(trace.step_mse, mses)

    def test_ogd_matches_straight_line_replay(self):
        model = small_model()
        stream = make_stream(12, L, K, C, seed=22)
        cfg = small_cfg(method="ogd", lr_ogd=0.002)
        trace = run_ogd(model, stream, cfg)
        mses, _, m = replay_plain("ogd", model, stream, cfg)
        np.testing.assert_array_equal(trace.step_mse, mses)
        for n, p in trace.final_model.named_params():
            np.testing.assert_array_equal(dict(m.named_params())[n], p, err_msg=n)


@dataclass
class Rec:
    """What the reference loops below keep of a step: its target, feature and
    stats, and once it is scored its loss gradient and tapes."""
    y: np.ndarray
    z: np.ndarray
    stats: NormStats
    g_y: np.ndarray = None
    head_tape: object = None
    adapter_tape: object = None


def stack(model, recs):
    """The records' hisgrad_terms stacked as compute_hisgrad takes them, each
    made as the ring makes it on the record's release."""
    return [np.stack(t) for t in
            zip(*(hisgrad_terms(model, r.z, r.y, r.stats) for r in recs))]


def encoded_records(model, stream):
    """Each sample's z, stats and target; adaptz moves no parameter before
    the tap, so these are the values its hisgrad window holds."""
    recs = []
    for sample in stream:
        x_norm, stats = normalize(sample.x)
        z = encode(model, x_norm)
        recs.append(Rec(y=sample.y, z=z, stats=stats))
    return recs


def replay_adaptz(model, adapter_net, stream, cfg, exact=False, rerun=False,
                  hisgrads=None, rate_after_sum=False):
    """Reference adaptz loop that backpropagates every record again in each
    window it enters. Each record's gradient comes from its g_y scaled by
    its path's rate over b, and the head and the adapter step at rate 1.0
    down the sum. It sums the gradients per parameter name by the engine's
    schedule: left to right on window 0 and every b-th window, and
    otherwise the previous sum plus the newest record's gradient minus that
    of the record that left. exact=True re-sums every window; rerun=True
    takes each hisgrad from hisgrad_by_rerun, and a hisgrads sequence (as
    pretraining makes it) gives the hisgrad after the n-th release as
    hisgrads[n - b]. rate_after_sum=True is the order before the rates
    rode on the shares: g_y / b, and each path steps at its own rate."""
    m = model.clone()
    a = adapter_net.clone()
    k, b = m.k, cfg.hist_batch
    recs = {}
    hisgrad = None
    mses = []
    acc = {}
    for s, sample in enumerate(stream):
        x_norm, stats = normalize(sample.x)
        z = encode(m, x_norm)
        if hisgrad is None:
            hisgrad = np.zeros_like(z)
        delta, a_tape = adapter_forward_with_tape(a, z, hisgrad)
        yhat, h_tape = head_forward_with_tape(m, z + delta, stats)
        loss, g_y = mse_with_grad(yhat, sample.y)
        mses.append(loss)
        recs[s] = Rec(y=sample.y, g_y=g_y, z=z, stats=stats,
                      head_tape=h_tape, adapter_tape=a_tape)
        if s < k + b - 1:                   # hisgrad stays zero until then
            continue
        window = [recs[i] for i in range(s - k - b + 1, s - k + 1)]
        if hisgrads is not None:
            hisgrad = hisgrads[s - k - b + 1]
        else:
            hisgrad = (hisgrad_by_rerun(m, window) if rerun
                       else compute_hisgrad(m, *stack(m, window)))

        def scaled(g_y, lr):
            return g_y / b if rate_after_sum else g_y * (lr / b)

        def grads(rec):
            out = {}
            if cfg.lr_head > 0:
                out["head.weight"], out["head.bias"] = grad_wrt_last_layer(
                    m, rec.head_tape, scaled(rec.g_y, cfg.lr_head))
            if cfg.lr_adapter > 0:
                g_z = grad_wrt_feature(m, rec.head_tape, scaled(rec.g_y, cfg.lr_adapter))
                out.update(adapter_backward_tape(rec.adapter_tape, g_z))
            return out

        if exact or (s - k - b + 1) % b == 0:
            acc = {}
            for rec in window:
                for name, g in grads(rec).items():
                    acc[name] = g if name not in acc else acc[name] + g
        else:
            new, old = grads(window[-1]), grads(recs[s - k - b])
            acc = {name: acc[name] + new[name] - old[name] for name in acc}
        rate_head, rate_adapter = ((cfg.lr_head, cfg.lr_adapter) if rate_after_sum
                                   else (1.0, 1.0))
        if cfg.lr_adapter > 0:
            sgd_step(a, {n: g for n, g in acc.items() if not n.startswith("head.")},
                     rate_adapter)
        if cfg.lr_head > 0:
            m.head.weight = m.head.weight - rate_head * acc["head.weight"]
            m.head.bias = m.head.bias - rate_head * acc["head.bias"]
    return np.asarray(mses), m, a


def pretrain_sequence(model, samples, b):
    """The hisgrad sequence pretrain_adapter makes for samples at window b."""
    return engine._hisgrad_sequence(model, list(engine._front_end(model, samples)), b)


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
        (K, 30, dict(lr_adapter=0.0, lr_head=0.0), {}),  # ring moves, no share
    ], ids=["head+adapter", "lr_head0", "lr_adapter0", "no_feat", "no_grad",
            "b1", "k1", "short", "frozen"])
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

    def test_post_tap_pass_runs_once_per_released_record(self, monkeypatch):
        # hisgrad reruns no block past the tap: the loop's head pass is the
        # only one per step, and only the shares take feature gradients
        calls = {"tail_forward": 0, "head_forward_with_tape": 0,
                 "grad_wrt_feature": 0}
        for name in calls:
            def counted(*args, _fn=getattr(engine, name), _name=name):
                calls[_name] += 1
                return _fn(*args)
            monkeypatch.setattr(engine, name, counted)
        k, b, n = K, 3, 25
        run_adaptz(small_model(), live_adapter(), make_stream(n, L, k, C, seed=93),
                   small_cfg(hist_batch=b))
        assert calls == {"tail_forward": n - k, "head_forward_with_tape": n,
                         "grad_wrt_feature": n - k}

    def test_grad_path_off_skips_hisgrad(self, monkeypatch):
        calls = []

        def spy(*args):
            calls.append(1)
            return compute_hisgrad(*args)

        monkeypatch.setattr(engine, "compute_hisgrad", spy)
        model = small_model()
        a = live_adapter(use_grad=False)
        stream = make_stream(30, L, K, C, seed=92)
        cfg = small_cfg(hist_batch=3)
        trace = run_adaptz(model, a, stream, cfg)
        assert calls == []
        # the reference replay still computes every hisgrad
        mses, m_ref, a_ref = replay_adaptz(model, a, stream, cfg)
        assert trace.step_mse.tobytes() == mses.tobytes()
        assert_same_bytes((m_ref, a_ref), (trace.final_model, trace.final_adapter))

    def test_pretrain_matches_rebackprop_replay(self, small_trained):
        # every epoch reads the one hisgrad sequence made before the first
        trained, _, val, _ = small_trained
        a = build_adapter(trained.d, seed=8)
        out = pretrain_adapter(trained, a, val, epochs=2, lr=0.001, hist_batch=4)
        cfg = EngineConfig(method="adaptz", horizon=trained.k,
                           lookback=trained.L, hist_batch=4, lr_adapter=0.001,
                           lr_head=0.0).validated()
        seq = pretrain_sequence(trained, val, 4)
        ref = a
        for _ in range(2):
            _, _, ref = replay_adaptz(trained, ref, val, cfg, hisgrads=seq)
        assert_same_bytes((ref,), (out,))

    @pytest.mark.parametrize("flags", [{}, dict(use_grad=False)],
                             ids=["head+adapter", "no_grad"])
    def test_window_longer_than_the_stream_allocates_nothing(self, flags):
        # 28 records are released, so neither window ever fills; the longer
        # one gets no slot list or ring, and the run is byte-equal
        model, a = small_model(), live_adapter(**flags)
        stream = make_stream(30, L, K, C, seed=94)
        ref = run_adaptz(model, a, stream, small_cfg(hist_batch=len(stream)))
        tracemalloc.start()
        try:
            trace = run_adaptz(model, a, stream, small_cfg(hist_batch=10**9))
            pre = pretrain_adapter(model, a, stream, epochs=2, hist_batch=10**9)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20
        assert trace.step_mse.tobytes() == ref.step_mse.tobytes()
        assert all(same_bytes(p, q) for p, q in zip(trace.preds, ref.preds))
        assert trace.cache_reads == ref.cache_reads
        assert_same_bytes((ref.final_model, ref.final_adapter),
                          (trace.final_model, trace.final_adapter))
        assert_same_bytes((pretrain_adapter(model, a, stream, epochs=2,
                                            hist_batch=len(stream)),), (pre,))
        mses, _, _ = replay_adaptz(model, a, stream, small_cfg(hist_batch=10**9))
        assert trace.step_mse.tobytes() == mses.tobytes()


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

    @pytest.mark.parametrize("flag, path", [("use_feat", "path_feat"),
                                            ("use_grad", "path_grad")])
    def test_disabled_path_keeps_its_arrays(self, monkeypatch, flag, path):
        # a path that is off has no gradient, so no window step reallocates it
        first = []

        def spy(a, z, hisgrad):
            if not first:                   # the run's adapter before any step
                first.extend((name, layer.weight, layer.bias)
                             for name, layer in a.named_layers())
            return adapter_forward_with_tape(a, z, hisgrad)

        monkeypatch.setattr(engine, "adapter_forward_with_tape", spy)
        trace = run_adaptz(small_model(), live_adapter(**{flag: False}),
                           make_stream(30, L, K, C, seed=96), small_cfg())
        for name, weight, bias in first:
            layer = getattr(trace.final_adapter, name)
            kept = layer.weight is weight and layer.bias is bias
            assert kept == (name == path), name


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
def stream_shapes(draw, windows=0):
    """(L, k, b, C, n) with n on both sides of the first full window k+b-1,
    reaching up to `windows` more windows of b steps past it."""
    L, k = draw(st.integers(2, 8)), draw(st.integers(1, 4))
    b, C = draw(st.integers(1, 4)), draw(st.integers(1, 3))
    return L, k, b, C, draw(st.integers(1, k + b + 2 + windows * b))


def run_all(L, k, b, C, stream, adapter_net, **rates):
    model = build_model(L=L, k=k, d=D, n_blocks=3, seed=3)
    cfg = small_cfg(horizon=k, lookback=L, hist_batch=b, **rates)
    return {m: run_method(m, model, adapter_net, stream, cfg)
            for m in ("ori", "fogd", "ogd", "adaptz")}


class TestStreamShapeProperties:
    @given(stream_shapes())
    @settings(max_examples=50, deadline=None)
    def test_release_schedule(self, shape):
        L, k, b, C, n = shape
        stream = make_stream(n, L, k, C, seed=n + 2)
        runs = run_all(L, k, b, C, stream, live_adapter())
        assert runs.pop("ori").cache_reads == []
        # each learning method is handed the record of step s-k at step s,
        # and nothing else; empty when n <= k
        for method, tr in runs.items():
            assert tr.cache_reads == [(s, s - k) for s in range(k, n)], method

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


class TestChunkedNormalization:
    # streams past two of the loop's normalize chunks, so runs cross a boundary
    N = 2 * engine.CHUNK + 9

    @pytest.mark.parametrize("cut", [engine.CHUNK - 1, engine.CHUNK,
                                     engine.CHUNK + 1])
    def test_prefix_invariant_at_chunk_boundary(self, cut):
        stream = make_stream(self.N, L, K, C, seed=100)
        full = run_all(L, K, 3, C, stream, live_adapter())
        short = run_all(L, K, 3, C, stream[:cut], live_adapter())
        for method, tr in short.items():
            assert tr.step_mse.tobytes() == full[method].step_mse[:cut].tobytes(), method
            assert [p.tobytes() for p in tr.preds] == \
                [p.tobytes() for p in full[method].preds[:cut]], method

    def test_learning_off_reproduces_ori(self):
        stream = make_stream(self.N, L, K, C, seed=101)
        runs = run_all(L, K, 3, C, stream, build_adapter(D, seed=9),
                       lr_adapter=0.0, lr_head=0.0, lr_fogd=0.0, lr_ogd=0.0)
        ori = runs.pop("ori")
        for method, tr in runs.items():
            assert tr.step_mse.tobytes() == ori.step_mse.tobytes(), method
            assert [p.tobytes() for p in tr.preds] == \
                [p.tobytes() for p in ori.preds], method

    @pytest.mark.parametrize("method", ["ori", "fogd", "ogd"])
    def test_bytes_equal_loop_normalizing_every_step(self, method):
        model = small_model()
        stream = make_stream(self.N, L, K, C, seed=102)
        cfg = small_cfg(lr_ogd=0.002)
        trace = run_method(method, model, None, stream, cfg)
        mses, preds, m = replay_plain(method, model, stream, cfg)
        assert trace.step_mse.tobytes() == mses.tobytes()
        assert [p.tobytes() for p in trace.preds] == [p.tobytes() for p in preds]
        assert_same_bytes((m,), (trace.final_model,))

    def test_adaptz_bytes_equal_loop_normalizing_every_step(self):
        model = small_model()
        a = live_adapter()
        stream = make_stream(self.N, L, K, C, seed=103)
        cfg = small_cfg(hist_batch=3)
        trace = run_adaptz(model, a, stream, cfg)
        mses, m_ref, a_ref = replay_adaptz(model, a, stream, cfg)
        assert trace.step_mse.tobytes() == mses.tobytes()
        assert_same_bytes((m_ref, a_ref), (trace.final_model, trace.final_adapter))

    @pytest.mark.parametrize("channels", [1, 2, 16])
    def test_bytes_equal_loop_normalizing_every_step_at_bench_width(self, channels):
        # the bench's L, k, d and blocks; C = 1 keeps the stacked reduction,
        # C > 1 reduces side by side and hands encode strided windows
        L_b, k_b, d_b = 96, 24, 64
        model = build_model(L=L_b, k=k_b, d=d_b, n_blocks=3, seed=5)
        a = live_adapter(d=d_b)
        stream = make_stream(self.N, L_b, k_b, channels, seed=106)
        cfg = EngineConfig(method="adaptz", horizon=k_b, lookback=L_b, hist_batch=4,
                           lr_adapter=0.01, lr_head=0.001, lr_fogd=0.05,
                           lr_ogd=0.001, seed=1).validated()
        for method in ("ori", "fogd", "ogd"):
            trace = run_method(method, model, None, stream, cfg)
            mses, preds, m = replay_plain(method, model, stream, cfg)
            assert np.all(np.isfinite(mses)), method
            assert trace.step_mse.tobytes() == mses.tobytes(), method
            assert [p.tobytes() for p in trace.preds] == \
                [p.tobytes() for p in preds], method
            assert_same_bytes((m,), (trace.final_model,))
        trace = run_adaptz(model, a, stream, cfg)
        mses, m_ref, a_ref = replay_adaptz(model, a, stream, cfg)
        assert trace.step_mse.tobytes() == mses.tobytes()
        assert_same_bytes((m_ref, a_ref), (trace.final_model, trace.final_adapter))

    def test_one_encode_per_step_and_one_normalize_per_chunk(self, monkeypatch,
                                                             small_trained):
        # bench/tracer.py counts a run's steps by its encode calls
        calls = {"encode": 0, "normalize": 0}

        def spy(name, fn):
            def counted(*args, **kw):
                calls[name] += 1
                return fn(*args, **kw)
            return counted

        monkeypatch.setattr(engine, "encode", spy("encode", encode))
        for mod in (engine, forecaster):          # the loop's and encode's own
            monkeypatch.setattr(mod, "normalize", spy("normalize", normalize))
        chunks = -(-self.N // engine.CHUNK)
        stream = make_stream(self.N, L, K, C, seed=104)
        for method in engine.METHODS:
            calls.update(encode=0, normalize=0)
            run_method(method, small_model(), live_adapter(), stream, small_cfg())
            assert calls == {"encode": self.N, "normalize": chunks}, method
        # pretraining encodes and normalizes the split once, before its first epoch
        trained, _, val, _ = small_trained
        assert len(val) > engine.CHUNK
        calls.update(encode=0, normalize=0)
        pretrain_adapter(trained, build_adapter(trained.d, seed=8), val,
                         epochs=3, hist_batch=4)
        assert calls == {"encode": len(val),
                         "normalize": -(-len(val) // engine.CHUNK)}

    @pytest.mark.parametrize("at", [engine.CHUNK - 1, engine.CHUNK,
                                    engine.CHUNK + 1])
    @pytest.mark.parametrize("bad", ["origin", "channels", "lookback", "x-1d"])
    def test_bad_sample_error_unchanged_near_boundary(self, monkeypatch, bad, at):
        # a list is checked before step 0, even past the first chunk
        calls = []
        monkeypatch.setattr(engine, "encode",
                            lambda *args: calls.append(1) or encode(*args))
        stream = make_stream(self.N, L, K, C, seed=105)
        s = stream[at]
        o = s.origin
        if bad == "origin":
            stream[at] = Sample(x=s.x, y=s.y, origin=stream[at - 1].origin)
            want = f"out-of-order stream timestamps: {o - 1} after {o - 1}"
        elif bad == "channels":
            stream[at] = Sample(x=np.ones((L, C + 1)), y=np.ones((K, C + 1)), origin=o)
            want = f"sample at origin {o}: channel count changed: {C + 1} != {C}"
        elif bad == "lookback":
            stream[at] = Sample(x=np.ones((L + 1, C)), y=s.y, origin=o)
            want = f"sample at origin {o}: x rows {L + 1} != lookback {L}"
        else:
            stream[at] = Sample(x=np.ones(L), y=s.y, origin=o)
            want = f"sample at origin {o}: x and y must be 2-D"
        for method in engine.METHODS:
            with pytest.raises(ValueError) as err:
                run_method(method, small_model(), live_adapter(), stream, small_cfg())
            assert str(err.value) == want, method
            assert calls == [], method

    def test_shape_fault_reported_before_order_fault(self):
        stream = make_stream(self.N, L, K, C, seed=108)
        stream[5] = Sample(x=stream[5].x, y=stream[5].y, origin=stream[4].origin)
        o = stream[engine.CHUNK + 1].origin
        stream[engine.CHUNK + 1] = Sample(x=np.ones((L + 1, C)), y=stream[0].y, origin=o)
        with pytest.raises(ValueError, match=f"sample at origin {o}: x rows"):
            run_method("ori", small_model(), None, stream, small_cfg())


def frame_splits(channels, seed, T=400):
    """chrono_split of an AR(1) frame: 73 train, 118 val and 198 test
    windows at L = 6, k = 2, so val and test cross chunk boundaries."""
    values = ar_series(T, channels, np.random.default_rng(seed))
    frame = SeriesFrame(values, [f"c{c}" for c in range(channels)])
    return chrono_split(frame, SplitSpec(0.2, 0.3, 0.5), L=L, k=K)


def assert_same_trace(ref, tr):
    assert tr.steps.dtype == ref.steps.dtype == np.int64
    np.testing.assert_array_equal(tr.steps, ref.steps)
    assert tr.step_mse.tobytes() == ref.step_mse.tobytes()
    assert [p.tobytes() for p in tr.preds] == [p.tobytes() for p in ref.preds]
    assert tr.cache_reads == ref.cache_reads
    objs = [o for o in (ref.final_model, ref.final_adapter) if o is not None]
    assert_same_bytes(objs, [o for o in (tr.final_model, tr.final_adapter)
                             if o is not None])


class TestWindowSplitEquivalence:
    # a split reduces each chunk from views of its array, a list of its
    # samples from their stack: every byte must agree
    CHANNELS = [1, 2, 3, 16]

    @pytest.mark.parametrize("channels", CHANNELS)
    def test_every_method_same_bytes_as_list(self, channels):
        _, _, test = frame_splits(channels, seed=200 + channels)
        assert isinstance(test, WindowSplit) and len(test) > 3 * engine.CHUNK
        cfg = small_cfg(hist_batch=3)
        for method in engine.METHODS:
            ref = run_method(method, small_model(), live_adapter(), list(test), cfg)
            tr = run_method(method, small_model(), live_adapter(), test, cfg)
            assert np.all(np.isfinite(tr.step_mse)), method
            assert_same_trace(ref, tr)

    @pytest.mark.parametrize("channels", CHANNELS)
    def test_fit_and_pretraining_same_bytes_as_list(self, channels):
        train, val, _ = frame_splits(channels, seed=300 + channels)
        assert len(val) > engine.CHUNK
        fits = [offline_train(small_model(), s, epochs=2, lr=0.01, batch=16, seed=4)
                for s in (list(train), train)]
        assert_same_bytes(fits[:1], fits[1:])
        a = build_adapter(D, seed=8)
        pre = [pretrain_adapter(fits[0], a, s, epochs=2, lr=0.01, hist_batch=3)
               for s in (list(val), val)]
        assert_same_bytes(pre[:1], pre[1:])

    @pytest.mark.parametrize("channels", CHANNELS)
    @pytest.mark.parametrize("bad", ["lookback", "horizon"])
    def test_model_mismatch_same_error_as_list(self, channels, bad):
        # a split's windows share one shape, so the channel count cannot
        # change inside one; a model with another L or k must fail alike
        train, val, test = frame_splits(channels, seed=400)
        lk = dict(L=L + 1, k=K) if bad == "lookback" else dict(L=L, k=K + 1)
        model = build_model(d=D, n_blocks=3, seed=3, **lk)
        cfg = small_cfg(lookback=lk["L"], horizon=lk["k"])
        calls = [lambda s: offline_train(model, s, epochs=1),
                 lambda s: pretrain_adapter(model, build_adapter(D, seed=8), s,
                                            epochs=1, hist_batch=3)]
        calls += [lambda s, m=m: run_method(m, model, live_adapter(), s, cfg)
                  for m in engine.METHODS]
        for split, call in zip([train, val] + [test] * 4, calls):
            texts = []
            for stream in (list(split), split):
                with pytest.raises(ValueError) as err:
                    call(stream)
                texts.append(str(err.value))
            assert texts[0] == texts[1]
            assert texts[1].startswith(f"sample at origin {split.start}: ")

    @pytest.mark.parametrize("channels", CHANNELS)
    def test_prefix_invariant_on_split_path(self, channels):
        _, _, test = frame_splits(channels, seed=500 + channels)
        full = run_all(L, K, 3, channels, test, live_adapter())
        for cut in (engine.CHUNK - 1, engine.CHUNK, engine.CHUNK + 1, 150):
            part = test[:cut]
            assert isinstance(part, WindowSplit) and len(part) == cut
            short = run_all(L, K, 3, channels, part, live_adapter())
            for method, tr in short.items():
                assert tr.step_mse.tobytes() == \
                    full[method].step_mse[:cut].tobytes(), (method, cut)
                assert [p.tobytes() for p in tr.preds] == \
                    [p.tobytes() for p in full[method].preds[:cut]], (method, cut)

    @pytest.mark.parametrize("channels", CHANNELS)
    def test_chunk_normalize_same_bytes_as_stack(self, channels):
        _, _, test = frame_splits(channels, seed=600 + channels)
        for lo in range(0, len(test), engine.CHUNK):
            chunk = test[lo:lo + engine.CHUNK]
            xn, st = normalize(chunk.lookbacks())
            ref_xn, ref_st = normalize(np.stack([s.x for s in chunk]))
            assert xn.shape == ref_xn.shape
            assert np.ascontiguousarray(xn).tobytes() == \
                np.ascontiguousarray(ref_xn).tobytes()
            assert st.mean.tobytes() == ref_st.mean.tobytes()
            assert st.std.tobytes() == ref_st.std.tobytes()


def assert_within_drift(ref_objs, objs, rel=1e-12):
    for ref, obj in zip(ref_objs, objs):
        for (name, p), (_, q) in zip(ref.named_params(), obj.named_params()):
            assert np.linalg.norm(q - p) <= rel * np.linalg.norm(p), name


class TestSlidingSumProperties:
    # streams long enough that the window sum passes several exact re-sums
    # and the hisgrad ring wraps around more than once
    @given(stream_shapes(windows=4))
    @settings(max_examples=50, deadline=None)
    def test_sliding_sum_within_drift_of_exact_resum(self, shape):
        L, k, b, C, n = shape
        model = build_model(L=L, k=k, d=D, n_blocks=3, seed=3)
        a = live_adapter()
        stream = make_stream(n, L, k, C, seed=n + 3)
        cfg = small_cfg(horizon=k, lookback=L, hist_batch=b)
        trace = run_adaptz(model, a, stream, cfg)
        mses, m_ref, a_ref = replay_adaptz(model, a, stream, cfg, exact=True)
        np.testing.assert_allclose(trace.step_mse, mses, rtol=1e-12, atol=0)
        assert_within_drift((m_ref, a_ref),
                            (trace.final_model, trace.final_adapter))
        # and the re-sum schedule is the replay's (s - k - b + 1) % b == 0
        mses, m_ref, a_ref = replay_adaptz(model, a, stream, cfg)
        assert trace.step_mse.tobytes() == mses.tobytes()
        assert_same_bytes((m_ref, a_ref),
                          (trace.final_model, trace.final_adapter))

    @given(stream_shapes(windows=4))
    @settings(max_examples=50, deadline=None)
    def test_rates_on_shares_within_drift_of_rates_after_sum(self, shape):
        # each share carries its path's rate and the window steps at 1.0;
        # the old order took g_y / b and applied each rate to the sum, so
        # the two agree to rounding only, and the run reruns to the byte
        L, k, b, C, n = shape
        model = build_model(L=L, k=k, d=D, n_blocks=3, seed=3)
        a = live_adapter()
        stream = make_stream(n, L, k, C, seed=n + 5)
        cfg = small_cfg(horizon=k, lookback=L, hist_batch=b)
        one, two = (run_adaptz(model, a, stream, cfg) for _ in range(2))
        assert one.step_mse.tobytes() == two.step_mse.tobytes()
        assert_same_bytes((one.final_model, one.final_adapter),
                          (two.final_model, two.final_adapter))
        mses, m_ref, a_ref = replay_adaptz(model, a, stream, cfg, rate_after_sum=True)
        np.testing.assert_allclose(one.step_mse, mses, rtol=1e-12, atol=0)
        assert_within_drift((m_ref, a_ref), (one.final_model, one.final_adapter))

    @given(stream_shapes(windows=4))
    @settings(max_examples=25, deadline=None)
    def test_reruns_are_byte_identical(self, shape):
        L, k, b, C, n = shape
        model = build_model(L=L, k=k, d=D, n_blocks=3, seed=3)
        stream = make_stream(n, L, k, C, seed=n + 4)
        cfg = small_cfg(horizon=k, lookback=L, hist_batch=b)
        one, two = (run_adaptz(model, live_adapter(), stream, cfg)
                    for _ in range(2))
        assert one.step_mse.tobytes() == two.step_mse.tobytes()
        assert_same_bytes((one.final_model, one.final_adapter),
                          (two.final_model, two.final_adapter))


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

    @given(stream_shapes(windows=4))
    @settings(max_examples=50, deadline=None)
    def test_adaptz_reads_cover_window_exactly_once(self, shape):
        # adaptz keeps its own window of released records: the hisgrad of
        # step s reads exactly the records of steps [s-k-b+1, s-k], byte-equal
        # to a fresh stack at every ring offset, wrap-around included
        L, k, b, C, n = shape
        model = build_model(L=L, k=k, d=D, n_blocks=3, seed=3)
        stream = make_stream(n, L, k, C, seed=n + 6)
        recs = encoded_records(model, stream)
        windows = []

        def as_bytes(*terms):
            return tuple(t.tobytes() for t in terms)

        def spy(model, *terms):
            windows.append(as_bytes(*terms))
            return compute_hisgrad(model, *terms)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(engine, "compute_hisgrad", spy)
            run_adaptz(model, live_adapter(), stream,
                       small_cfg(horizon=k, lookback=L, hist_batch=b))
        assert windows == [as_bytes(*stack(model, recs[s - k - b + 1:s - k + 1]))
                           for s in range(k + b - 1, n)]


class TestDelayOwnedByLoop:
    def test_hisgrad_computed_from_first_full_window_on(self, monkeypatch):
        sizes = []

        def spy(model, head_in, *terms):
            sizes.append(len(head_in))
            assert all(len(t) == len(head_in) for t in terms)
            return compute_hisgrad(model, head_in, *terms)

        monkeypatch.setattr(engine, "compute_hisgrad", spy)
        k, b, n = 2, 3, 20
        model = build_model(L=L, k=k, d=D, n_blocks=3, seed=3)
        stream = make_stream(n, L, k, C, seed=42)
        run_adaptz(model, live_adapter(), stream, small_cfg(hist_batch=b))
        assert sizes == [b] * (n - (k + b - 1))

    @pytest.mark.parametrize("frozen", [dict(lr_adapter=0.0, lr_head=0.0,
                                             lr_fogd=0.0, lr_ogd=0.0),
                                        dict(lr_fogd=0.0, lr_ogd=0.0)],
                             ids=["all_rates_zero", "zero_rate"])
    def test_frozen_fogd_and_ogd_store_no_record(self, monkeypatch, frozen):
        learns = []
        deploy = engine._deploy

        def spy(method, model, steps, correct, learn, *args, **kw):
            learns.append(learn)
            return deploy(method, model, steps, correct, learn, *args, **kw)

        monkeypatch.setattr(engine, "_deploy", spy)
        model = small_model()
        stream = make_stream(12, L, K, C, seed=43)
        run_fogd(model, stream, small_cfg())
        assert learns[0] is not None, "the live run hands the loop no learn"
        for run in (run_fogd, run_ogd):
            learns.clear()
            trace = run(model, stream, small_cfg(**frozen))
            assert learns == [None] and trace.cache_reads == [], trace.method

    def test_correct_sees_no_target_and_head_runs_once_per_step(self,
                                                                monkeypatch):
        seen, calls = [], []

        def correct(*args):
            seen.append(args)
            return np.zeros_like(args[0]), None

        def counted(model, z_adj, stats):
            calls.append(1)
            return head_forward_with_tape(model, z_adj, stats)

        model = small_model()
        stream = make_stream(12, L, K, C, seed=44)
        ori = run_ori(model, stream, small_cfg())
        monkeypatch.setattr(engine, "head_forward_with_tape", counted)
        probe = model.clone()
        trace = engine._deploy("probe", probe, engine._front_end(probe, stream),
                               correct, lambda *record: None)
        # correct is handed each step's z alone, once per step
        zs = [z for _, _, _, z, _ in engine._front_end(model.clone(), stream)]
        assert [len(args) for args in seen] == [1] * len(stream)
        assert all(same_bytes(args[0], z) for args, z in zip(seen, zs))
        assert len(calls) == len(stream)
        assert trace.step_mse.tobytes() == ori.step_mse.tobytes()

    def test_each_step_scored_once_and_only_ogd_rescores(self, monkeypatch,
                                                         small_trained):
        calls = []

        def counted(pred, target):
            calls.append(1)
            return mse_with_grad(pred, target)

        monkeypatch.setattr(engine, "mse_with_grad", counted)
        n = 15
        stream = make_stream(n, L, K, C, seed=45)
        model = small_model()
        cfg = small_cfg(hist_batch=3)
        for method, want in [("fogd", n), ("adaptz", n), ("ogd", n + n - K)]:
            calls.clear()
            run_method(method, model, live_adapter(), stream, cfg)
            assert len(calls) == want, method
        trained, _, val, _ = small_trained
        calls.clear()
        pretrain_adapter(trained, build_adapter(trained.d, seed=8), val,
                         epochs=2, hist_batch=4)
        assert len(calls) == 2 * len(val)


def hisgrad_by_rerun(model, recs):
    """hisgrad by the route the stored terms replace: the post-tap blocks and
    the head rerun on the window's stacked z, the prediction denormalized and
    scored, then backpropagated through both unfolded, then the window mean."""
    b, (C, d) = len(recs), recs[0].z.shape
    flat = NormStats(mean=np.stack([r.stats.mean for r in recs]).reshape(b * C),
                     std=np.stack([r.stats.std for r in recs]).reshape(b * C))
    yhat, tape = head_forward_with_tape(
        model, np.stack([r.z for r in recs]).reshape(b * C, d), flat)
    err = yhat.reshape(model.k, b, C) - np.stack([r.y for r in recs]).transpose(1, 0, 2)
    g_yhat = (2.0 * err / (model.k * C)).reshape(model.k, b * C)
    return grad_wrt_feature(model, tape, g_yhat).reshape(b, C, d).mean(axis=0)


def rounding_scale(model, rec):
    """The norms of a record's feature gradient from its prediction and from
    its target (the gradient is their difference), summed: the size its
    rounding follows, whatever the difference cancels."""
    yhat, tape = head_forward_with_tape(model, rec.z, rec.stats)
    k, C = rec.y.shape
    return sum(np.linalg.norm(grad_wrt_feature(
        model, tape, 2.0 * (part - rec.stats.mean) / (k * C))) for part in (yhat, rec.y))


@st.composite
def tap_windows(draw):
    """A model of 1-4 blocks tapped at any of them (0-3 post-tap blocks) and
    a window of b records of C channels at horizon k, maybe with one channel
    constant over every lookback (its std clamped at STD_EPS)."""
    blocks = draw(st.integers(1, 4))
    tap = draw(st.integers(0, blocks - 1))
    b, C = draw(st.sampled_from([1, 2, 5])), draw(st.sampled_from([1, 2, 3, 4, 16]))
    k, seed = draw(st.integers(1, 3)), draw(st.integers(0, 2**16))
    model = build_model(L=L, k=k, d=D, n_blocks=blocks, tap_index=tap, seed=seed)
    stream = make_stream(b, L, k, C, seed=seed + 1)
    flat = draw(st.one_of(st.none(), st.integers(0, C - 1)))
    if flat is not None:
        for sample in stream:
            sample.x = sample.x.copy()
            sample.x[:, flat] = 3.0
    recs = encoded_records(model, stream)
    assert flat is None or all(r.stats.std[flat] == STD_EPS for r in recs)
    return model, recs


class TestHisgrad:
    def _records(self, model, n, seed):
        return encoded_records(model, make_stream(n, L, K, C, seed=seed))

    @given(tap_windows())
    @settings(max_examples=200, deadline=None)
    def test_tails_within_drift_of_rerun_at_every_tap(self, window):
        # a block GEMM over C rows is not byte-equal to the same rows inside a
        # (b*C)-row stack, the fold reorders the head's product, and
        # y_norm * a + c sums the denormalized error in another order.
        # Rounding follows the size of the records' own gradients, not of
        # their mean, which can cancel to a far smaller norm (2.9e-12 of it
        # was seen on a correct tree); and a record's gradient cancels too
        # where its prediction nearly meets its target, so each record is
        # sized by its prediction's and its target's parts
        model, recs = window
        out = compute_hisgrad(model, *stack(model, recs))
        want = hisgrad_by_rerun(model, recs)
        scale = np.mean([rounding_scale(model, r) for r in recs])
        assert np.linalg.norm(out - want) <= 1e-12 * scale

    @pytest.mark.parametrize("C", [2, 16])
    @pytest.mark.parametrize("tap", [2, 1, 0],
                             ids=["0_post_tap", "1_post_tap", "2_post_tap"])
    def test_stream_within_drift_of_rerun_hisgrad(self, tap, C):
        # a whole run against a replay whose every hisgrad reruns the post-tap
        # pass: the summation orders differ, so the losses agree to rounding
        # only, and a rerun of the run agrees to the byte
        model = build_model(L=L, k=K, d=D, n_blocks=3, tap_index=tap, seed=3)
        stream = make_stream(80, L, K, C, seed=95)
        a, cfg = live_adapter(), small_cfg(hist_batch=3)
        one, two = (run_adaptz(model, a, stream, cfg) for _ in range(2))
        assert one.step_mse.tobytes() == two.step_mse.tobytes()
        mses, _, _ = replay_adaptz(model, a, stream, cfg, rerun=True)
        np.testing.assert_allclose(one.step_mse, mses, rtol=1e-12, atol=0)

    @pytest.mark.parametrize("tap", [2, 1, 0],
                             ids=["0_post_tap", "1_post_tap", "2_post_tap"])
    def test_window_matches_fd_past_any_tap(self, tap):
        # hisgrad is the gradient of the window-mean loss in one offset u
        # added to every record's z
        b, checked = 3, 0
        for seed in range(100):
            model = build_model(L=L, k=K, d=D, n_blocks=3, tap_index=tap, seed=seed)
            stream = make_stream(b, L, K, C, seed=seed + 500)
            # the ReLU inputs past the tap: z, then each block's output but the last
            tapes = [predict_with_tape(model, *normalize(s.x))[1] for s in stream]
            if min(relu_margin(t.pre[tap:-1]) for t in tapes) < KINK_MARGIN:
                continue
            recs = encoded_records(model, stream)
            out = compute_hisgrad(model, *stack(model, recs))
            u = np.zeros((C, D))

            def loss():
                return sum(mse_with_grad(
                    head_forward_with_tape(model, r.z + u, r.stats)[0], r.y)[0]
                    for r in recs) / b

            assert rel_err(out, fd_grad(loss, u)) < 1e-5
            checked += 1
            if checked == 3:
                return
        pytest.fail(f"only {checked} windows clear of the ReLU kinks")

    @given(reduction_inputs(cols=st.integers(1, 20).map(lambda c: c * D)))
    @settings(max_examples=200, deadline=None)
    def test_window_mean_bytes_equal_numpy_mean(self, g):
        # g holds b records' feature gradients, each (C x D) flattened to a row.
        # One post-tap block, a zero head input and a = 0 make the loss
        # gradient c = e_0 in every row; with head row 0 all ones and the
        # block's weight the identity, the fold H @ W takes it to a row of
        # ones exactly, so the last mask, set to g, is what the mean reduces
        b, C = g.shape[0], g.shape[1] // D
        model = build_model(L=L, k=K, d=D, n_blocks=2, tap_index=0, seed=3)
        model.head.weight = np.zeros((K, D))
        model.head.weight[0] = 1.0
        model.head.bias = np.zeros(K)
        model.blocks[1].weight = np.eye(D)
        c = np.zeros((b, C, K))
        c[..., 0] = 1.0
        with np.errstate(all="ignore"):
            out = compute_hisgrad(model, np.zeros((b, C, D)), np.zeros((b, C, 1)),
                                  c, g.reshape(b, C, D))
            want = g.reshape(b, C, D).mean(axis=0)
        assert same_bytes(out, want)

    def test_single_record_matches_fd(self):
        model = small_model()
        rec = self._records(model, 1, seed=51)[0]
        out = compute_hisgrad(model, *stack(model, [rec]))
        z = rec.z.copy()

        def loss():
            return mse_with_grad(head_forward_with_tape(model, z, rec.stats)[0], rec.y)[0]

        assert rel_err(out, fd_grad(loss, z)) < 1e-5

    def test_window_average_of_identical_records(self):
        model = small_model()
        one = self._records(model, 1, seed=52)[0]
        b = 4
        single = compute_hisgrad(model, *stack(model, [one]))
        window = compute_hisgrad(model, *stack(model, [Rec(y=one.y, z=one.z,
                                                    stats=one.stats)] * b))
        np.testing.assert_allclose(window, single, atol=1e-12)

    def test_general_window_is_mean_of_per_record_grads(self):
        model = small_model()
        recs = self._records(model, 3, seed=53)
        out = compute_hisgrad(model, *stack(model, recs))
        per = [compute_hisgrad(model, *stack(model, [rec])) for rec in recs]
        np.testing.assert_allclose(out, np.mean(per, axis=0), atol=1e-12)

    def test_evaluated_under_current_parameters(self):
        model = small_model()
        rec = self._records(model, 1, seed=54)[0]
        before = compute_hisgrad(model, *stack(model, [rec]))
        moved = model.clone()
        apply_param_step(moved, {n: np.ones_like(p) * 0.05
                                 for n, p in moved.named_params()}, 1.0)
        after = compute_hisgrad(moved, *stack(moved, [rec]))
        assert not np.array_equal(before, after)
        z = rec.z.copy()

        def loss():
            return mse_with_grad(head_forward_with_tape(moved, z, rec.stats)[0], rec.y)[0]

        assert rel_err(after, fd_grad(loss, z)) < 1e-5


class TestHisgradSequence:
    # pretraining's hisgrads from stacks of up to CHUNK records against the
    # deployed route, one (b*C)-row compute_hisgrad per window: their GEMMs
    # run over other row counts, so they agree to rounding only. Rounding
    # follows the size of the records' own gradients, not of their mean,
    # which can cancel, so each window is sized by its records' norms
    N = 2 * engine.CHUNK + 3 + K            # 2 * CHUNK + 3 released records

    @pytest.mark.parametrize("b", [1, 5, engine.CHUNK + 6])
    @pytest.mark.parametrize("C", [1, 2, 16])
    @pytest.mark.parametrize("tap", [2, 1, 0],
                             ids=["0_post_tap", "1_post_tap", "2_post_tap"])
    def test_within_drift_of_per_window_hisgrad(self, tap, C, b):
        model = build_model(L=L, k=K, d=16, n_blocks=3, tap_index=tap, seed=7)
        stream = make_stream(self.N, L, K, C, seed=97)
        steps = list(engine._front_end(model, stream))
        seq = engine._hisgrad_sequence(model, steps, b)
        again = engine._hisgrad_sequence(model, steps, b)
        recs = encoded_records(model, stream)[:self.N - K]
        # windows j with j < CHUNK < j + b cross the first stack's end
        assert len(seq) == len(recs) - b + 1
        sizes = [np.linalg.norm(compute_hisgrad(model, *stack(model, [r])))
                 for r in recs]
        for j, hisgrad in enumerate(seq):
            want = compute_hisgrad(model, *stack(model, recs[j:j + b]))
            assert hisgrad.shape == want.shape == (C, 16)
            assert np.linalg.norm(hisgrad - want) <= 1e-12 * np.mean(sizes[j:j + b]), j
            assert hisgrad.tobytes() == again[j].tobytes(), j

    def test_window_of_more_records_than_released_is_empty(self):
        model = small_model()
        steps = list(engine._front_end(model, make_stream(10, L, K, C, seed=98)))
        assert engine._hisgrad_sequence(model, steps, 10 - K + 1) == []
        assert len(engine._hisgrad_sequence(model, steps, 10 - K)) == 1


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

    @pytest.mark.parametrize("b", [1, 3, 24])
    @pytest.mark.parametrize("flags", [{}, dict(use_grad=False),
                                       dict(use_feat=False)],
                             ids=["full", "nograd", "nofeat"])
    def test_equals_chained_adaptz_passes(self, small_trained, flags, b):
        # every epoch reads the encodings made before the first and the one
        # hisgrad sequence: byte-equal to chained replays that read it too,
        # and within drift of chained deployed passes, whose hisgrads come
        # window by window from (b*C)-row passes, not CHUNK-record stacks
        trained, _, val, _ = small_trained
        a = build_adapter(trained.d, seed=8, **flags)
        out = pretrain_adapter(trained, a, val, epochs=3, lr=0.001, hist_batch=b)
        cfg = EngineConfig(method="adaptz", horizon=trained.k,
                           lookback=trained.L, hist_batch=b, lr_adapter=0.001,
                           lr_head=0.0).validated()
        seq = pretrain_sequence(trained, val, b)
        ref = run = a
        for _ in range(3):
            _, _, ref = replay_adaptz(trained, ref, val, cfg, hisgrads=seq)
            run = run_adaptz(trained, run, val, cfg).final_adapter
        assert_same_bytes((ref,), (out,))
        assert_within_drift((run,), (out,))

    def test_encodes_val_and_computes_hisgrads_once(self, monkeypatch,
                                                    small_trained):
        # the sequence is made once, before the first epoch, from one
        # hisgrad_terms and one _hisgrad_rows per CHUNK of released records;
        # no step of any epoch calls compute_hisgrad or hisgrad_terms
        trained, _, val, _ = small_trained
        names = ("encode", "hisgrad_terms", "_hisgrad_rows", "compute_hisgrad",
                 "_hisgrad_sequence")
        calls = dict.fromkeys(names, 0)
        for name in names:
            def counted(*args, _fn=getattr(engine, name), _name=name):
                calls[_name] += 1
                return _fn(*args)
            monkeypatch.setattr(engine, name, counted)
        chunks = -(-(len(val) - trained.k) // engine.CHUNK)
        assert chunks > 1
        pretrain_adapter(trained, build_adapter(trained.d, seed=8), val,
                         epochs=3, hist_batch=4)
        assert calls == {"encode": len(val), "hisgrad_terms": chunks,
                         "_hisgrad_rows": chunks, "compute_hisgrad": 0,
                         "_hisgrad_sequence": 1}
        # with the grad path off, the adapter never reads a hisgrad
        calls.update(dict.fromkeys(names, 0))
        pretrain_adapter(trained, build_adapter(trained.d, seed=8, use_grad=False),
                         val, epochs=3, hist_batch=4)
        assert calls == {"encode": len(val), "hisgrad_terms": 0, "_hisgrad_rows": 0,
                         "compute_hisgrad": 0, "_hisgrad_sequence": 0}

    def test_deploys_one_copy_for_every_epoch(self, monkeypatch, small_trained):
        trained, _, val, _ = small_trained
        copies = []

        def counted(model, cfg, _fn=engine._deployed_copy):
            copies.append(cfg.lr_head)
            return _fn(model, cfg)
        monkeypatch.setattr(engine, "_deployed_copy", counted)
        pretrain_adapter(trained, build_adapter(trained.d, seed=8), val,
                         epochs=3, hist_batch=4)
        assert copies == [0.0]

    def test_epochs_keep_no_predictions(self, monkeypatch, small_trained):
        # nothing reads a pretraining epoch's preds; a deployed run keeps its own
        trained, _, val, test = small_trained
        traces = []

        def spy(*args, _fn=engine._deploy, **kw):
            traces.append(_fn(*args, **kw))
            return traces[-1]
        monkeypatch.setattr(engine, "_deploy", spy)
        pretrain_adapter(trained, build_adapter(trained.d, seed=8), val,
                         epochs=2, hist_batch=4)
        assert [(len(t.step_mse), t.preds) for t in traces] == [(len(val), [])] * 2
        cfg = EngineConfig(horizon=trained.k, lookback=trained.L, hist_batch=4)
        assert len(run_adaptz(trained, build_adapter(trained.d, seed=8), test,
                              cfg).preds) == len(test)

    @pytest.mark.parametrize("row,col,bad", [
        (0, 0, np.nan),      # the first row the windows cover: a lookback only
        (150, 1, np.nan),    # the middle: lookbacks and targets
        (150, 0, np.inf),
        (299, 1, -np.inf),   # the last row: one window's target only
    ])
    def test_non_finite_window_refused_by_its_origin(self, monkeypatch, row, col,
                                                     bad):
        # one bad cell of a 300 x 2 frame, L=16 and k=4; the split and the
        # list of its samples name the same, first window that holds it,
        # before any window is encoded
        calls = []
        monkeypatch.setattr(engine, "encode",
                            lambda *args: calls.append(1) or encode(*args))
        series = np.random.default_rng(3).standard_normal((300, 2))
        series[row, col] = bad
        split = WindowSplit(series, L=16, k=4, start=15, stop=296)
        model = build_model(L=16, k=4, d=8, n_blocks=2, seed=4)
        for samples in (split, list(split)):
            with pytest.raises(ValueError, match=re.escape(
                    f"sample at origin {max(15, row - 4)}: non-finite x or y")):
                pretrain_adapter(model, build_adapter(8, seed=1), samples,
                                 epochs=2, hist_batch=4)
        assert calls == []

    @pytest.mark.parametrize("epochs", [0, 1])
    def test_non_finite_window_refused_at_any_epoch_count(self, epochs):
        # as offline_train refuses it, at 0 epochs too; an empty split of
        # either kind still gives back a clone
        series = np.random.default_rng(3).standard_normal((300, 2))
        series[150, 0] = np.nan
        split = WindowSplit(series, L=16, k=4, start=15, stop=296)
        model = build_model(L=16, k=4, d=8, n_blocks=2, seed=4)
        a = live_adapter(d=8)
        for samples in (split, list(split)):
            for fit in (lambda s: offline_train(model, s, epochs),
                        lambda s: pretrain_adapter(model, a, s, epochs, hist_batch=4)):
                with pytest.raises(ValueError, match=re.escape(
                        "sample at origin 146: non-finite x or y")):
                    fit(samples)
        for empty in (split[:0], []):
            out = pretrain_adapter(model, a, empty, epochs, hist_batch=4)
            assert out is not a
            assert_params_equal(params_of(a), out)

    @pytest.mark.parametrize("epochs", [0, 1])
    def test_repeated_origin_refused_at_any_epoch_count(self, epochs):
        # val passes the front end's order check before any epoch, at 0 too
        series = np.random.default_rng(3).standard_normal((300, 2))
        samples = list(WindowSplit(series, L=16, k=4, start=15, stop=296))
        twin = samples[100]
        samples[100] = Sample(x=twin.x, y=twin.y, origin=samples[99].origin)
        assert samples[99].origin == 114
        model = build_model(L=16, k=4, d=8, n_blocks=2, seed=4)
        with pytest.raises(ValueError, match=re.escape(
                "out-of-order stream timestamps: 114 after 114")):
            pretrain_adapter(model, live_adapter(d=8), samples, epochs, hist_batch=4)

    @pytest.mark.parametrize("epochs", [0, 1])
    def test_settings_validated_at_any_epoch_count(self, small_trained, epochs):
        trained, _, val, _ = small_trained
        with pytest.raises(ValueError, match="hist_batch must be >= 1"):
            pretrain_adapter(trained, live_adapter(), val, epochs, hist_batch=0)

    def test_non_finite_row_no_window_covers_is_pretrained(self):
        series = np.random.default_rng(3).standard_normal((300, 2))
        series[:10, 0] = np.nan          # before the first lookback
        series[-3:, 1] = np.inf          # after the last target
        split = WindowSplit(series, L=16, k=4, start=25, stop=293)
        model = build_model(L=16, k=4, d=8, n_blocks=2, seed=4)
        for samples in (split, list(split)):
            out = pretrain_adapter(model, live_adapter(d=8), samples, epochs=2,
                                   hist_batch=4)
            assert all(np.isfinite(p).all() for _, p in out.named_params())

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

    @pytest.mark.parametrize("x_shape,y_shape", [((L,), (K, 1)), ((L, 1), (K,))],
                             ids=["x-1d", "y-1d"])
    def test_sample_not_2d_names_origin(self, x_shape, y_shape):
        stream = [Sample(x=np.zeros(x_shape), y=np.zeros(y_shape), origin=7)]
        with pytest.raises(ValueError, match="origin 7: x and y must be 2-D"):
            run_ori(small_model(), stream, small_cfg())

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
    def test_trace_csv_layout_and_running_mean(self, tmp_path):
        model = small_model()
        stream = make_stream(8, L, K, C, seed=80)
        trace = run_ori(model, stream, small_cfg())
        path = str(tmp_path / "trace.csv")
        write_trace_csv(trace, path)
        lines = Path(path).read_text().splitlines()
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

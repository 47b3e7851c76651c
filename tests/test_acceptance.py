"""End-to-end acceptance checks, one test per criterion.

Each test prints one `criterion NN ...: PASS/FAIL` line (visible under
`pytest -s`; under plain `pytest -v` the per-test PASSED/FAILED line carries
the same information) and enforces the stated tolerance and runtime budget.
"""

import time
from pathlib import Path

import numpy as np
import pytest

from driftcast import (DriftSpec, EngineConfig, SplitSpec, build_adapter,
                       build_model, chrono_split, gen_concept_drift, normalize,
                       offline_train, pretrain_adapter, run_adaptz, run_fogd,
                       run_method, run_ogd, run_ori, write_trace_csv)
from driftcast.adapter import adapter_backward_tape, adapter_forward_with_tape
from driftcast.cli import parse_config, run_plan
from driftcast.diffmath import mse_with_grad
from driftcast.forecaster import (Sample, encode, grad_wrt_feature,
                                  head_forward_with_tape, param_grads, predict,
                                  predict_with_tape)
from driftcast.regret import make_problem, report_rows, run_oco, run_sweep
from conftest import (KINK_MARGIN, adapter_of_width, fd_grad, make_stream,
                      rel_err, relu_margin)

SEEDS = (2025, 2026, 2027, 2028, 2029)


def verdict(num, name, ok):
    print(f"criterion {num:02d} {name}: {'PASS' if ok else 'FAIL'}")
    assert ok, f"criterion {num:02d} {name} failed"


def drift_frame(seed):
    return gen_concept_drift(DriftSpec(kind="concept_drift", length=6000,
                                       channels=2, change_points=[4800],
                                       magnitudes=[1.0], seed=seed))


def deploy_cfg(**kw):
    base = dict(method="adaptz", horizon=24, lookback=96, hist_batch=24,
                seed=2025)
    base.update(kw)
    return EngineConfig(**base).validated()


@pytest.fixture(scope="module")
def drift_lab():
    """Five-seed drift experiment shared by criteria 5, 6, 9 and 10.

    Time spent on the three headline methods is tracked separately from the
    ablation variants so criterion 5 can enforce its own runtime budget.
    """
    lab = {"mse": {}, "t_core": 0.0}
    for seed in SEEDS:
        t0 = time.perf_counter()
        frame = drift_frame(seed)
        train, val, test = chrono_split(frame, SplitSpec(), L=96, k=24)
        model = build_model(96, 24, d=64, n_blocks=3, seed=seed)
        trained = offline_train(model, train, epochs=5, lr=1e-3, batch=32,
                                seed=seed + 1)
        cfg = deploy_cfg(seed=seed)
        ori = run_ori(trained, test, cfg)
        fogd = run_fogd(trained, test, cfg)
        full = build_adapter(trained.d, seed=seed + 2)
        full = pretrain_adapter(trained, full, val, epochs=3, lr=1e-3,
                                seed=seed, hist_batch=24)
        adaptz = run_adaptz(trained, full, test, cfg)
        lab["t_core"] += time.perf_counter() - t0
        mses = {"ori": ori.mse, "fogd": fogd.mse, "adaptz": adaptz.mse}
        for tag, flags in (("nograd", dict(use_grad=False)),
                           ("nofeat", dict(use_feat=False))):
            a = build_adapter(trained.d, seed=seed + 2, **flags)
            a = pretrain_adapter(trained, a, val, epochs=3, lr=1e-3,
                                 seed=seed, hist_batch=24)
            mses[tag] = run_adaptz(trained, a, test, deploy_cfg(seed=seed)).mse
        lab["mse"][seed] = mses
        if seed == 2025:
            lab["trained"] = trained
            lab["adapter"] = full
            lab["test"] = test
            lab["ori_trace"] = ori
    return lab


class TestCriterion1Gradients:
    def test_criterion_01_gradient_correctness(self):
        t0 = time.perf_counter()
        rng = np.random.default_rng(2025)
        worst = 0.0

        done = attempts = 0
        while done < 100:  # forecaster parameter gradients
            attempts += 1
            assert attempts < 1000
            L = int(rng.integers(3, 9))
            k = int(rng.integers(1, 4))
            C = int(rng.integers(1, 4))
            d = int(rng.integers(2, 6))
            nb = int(rng.integers(1, 4))
            model = build_model(L, k, d=d, n_blocks=nb,
                                tap_index=int(rng.integers(0, nb)),
                                seed=int(rng.integers(0, 10000)))
            x = rng.standard_normal((L, C))
            y = rng.standard_normal((k, C))
            yhat, tape = predict_with_tape(model, *normalize(x))
            if relu_margin(tape.pre[:-1]) < KINK_MARGIN:
                continue
            done += 1
            _, g_yhat = mse_with_grad(yhat, y)
            grads = param_grads(model, tape, g_yhat)

            def loss():
                return mse_with_grad(predict(model, x), y)[0]

            for name, arr in model.named_params():
                worst = max(worst, rel_err(grads[name], fd_grad(loss, arr)))

        done = attempts = 0
        while done < 100:  # feature gradients
            attempts += 1
            assert attempts < 1000
            L = int(rng.integers(3, 9))
            k = int(rng.integers(1, 4))
            C = int(rng.integers(1, 4))
            nb = int(rng.integers(1, 4))
            model = build_model(L, k, d=int(rng.integers(2, 6)), n_blocks=nb,
                                tap_index=int(rng.integers(0, nb)),
                                seed=int(rng.integers(0, 10000)))
            x = rng.standard_normal((L, C))
            y = rng.standard_normal((k, C))
            x_norm, stats = normalize(x)
            z = encode(model, x_norm)
            _, full = predict_with_tape(model, *normalize(x))
            if relu_margin(full.pre[model.tap_index:-1]) < KINK_MARGIN:
                continue
            done += 1
            z = z.copy()
            yhat, tape = head_forward_with_tape(model, z, stats)
            _, g_yhat = mse_with_grad(yhat, y)
            analytic = grad_wrt_feature(model, tape, g_yhat)

            def loss():
                return mse_with_grad(head_forward_with_tape(model, z, stats)[0], y)[0]

            worst = max(worst, rel_err(analytic, fd_grad(loss, z)))

        done = attempts = 0
        while done < 100:  # adapter parameter gradients
            attempts += 1
            assert attempts < 1000
            d = int(rng.integers(2, 6))
            C = int(rng.integers(1, 4))
            a = adapter_of_width(d, h=int(rng.integers(2, 7)),
                                 use_feat=bool(rng.integers(0, 2)),
                                 use_grad=True, seed=int(rng.integers(0, 10000)))
            a.out.weight = 0.4 * rng.standard_normal(a.out.weight.shape)
            a.out.bias = 0.1 * rng.standard_normal(a.out.bias.shape)
            z = rng.standard_normal((C, d))
            hg = 0.2 * rng.standard_normal((C, d))
            target = rng.standard_normal((C, d))
            delta0, tape = adapter_forward_with_tape(a, z, hg)
            if relu_margin([tape.s, tape.hh]) < KINK_MARGIN:
                continue
            done += 1
            _, g_delta = mse_with_grad(delta0, target)
            grads = adapter_backward_tape(tape, g_delta)

            def loss():
                delta, _ = adapter_forward_with_tape(a, z, hg)
                return mse_with_grad(delta, target)[0]

            for name, arr in a.named_params():
                numeric = fd_grad(loss, arr)
                if name in grads:
                    worst = max(worst, rel_err(grads[name], numeric))
                elif numeric.any():     # a path that is off has no gradient
                    worst = np.inf

        elapsed = time.perf_counter() - t0
        verdict(1, "gradient correctness", worst < 1e-5 and elapsed < 30.0)


class TestCriterion2Frozen:
    def test_criterion_02_frozen_equivalence(self):
        ok = True
        for k in (1, 24, 48):
            model = build_model(96, k, d=64, n_blocks=3, seed=100 + k)
            stream = make_stream(2000, 96, k, 2, seed=200 + k)
            cfg = deploy_cfg(horizon=k, lr_adapter=0.0, lr_head=0.0,
                             lr_fogd=0.0, lr_ogd=0.0)
            ref = run_ori(model, stream, cfg)
            for trace in (run_fogd(model, stream, cfg),
                          run_ogd(model, stream, cfg),
                          run_adaptz(model, build_adapter(64, seed=7),
                                     stream, cfg)):
                ok = ok and ref.step_mse.tobytes() == trace.step_mse.tobytes()
                ok = ok and all(p.tobytes() == q.tobytes()
                                for p, q in zip(ref.preds, trace.preds))
        verdict(2, "frozen equivalence (2000 steps, k in {1,24,48})", ok)


class TestCriterion3Causality:
    def test_criterion_03_prefix_invariance(self):
        L, k, C = 12, 3, 2
        model = build_model(L, k, d=8, n_blocks=3, seed=31)
        adapter = build_adapter(8, seed=32)
        rng0 = np.random.default_rng(33)
        adapter.out.weight = 0.2 * rng0.standard_normal(adapter.out.weight.shape)
        stream = make_stream(64, L, k, C, seed=34)
        cfg = deploy_cfg(horizon=k, lookback=L, hist_batch=4,
                         lr_adapter=0.01, lr_head=0.001, lr_fogd=0.05,
                         lr_ogd=0.001)
        rng = np.random.default_rng(2025)
        ok = True
        for method in ("ori", "fogd", "ogd", "adaptz"):
            a = adapter if method == "adaptz" else None
            for _ in range(50):
                m = int(rng.integers(1, 51))
                ext = int(rng.integers(1, 11))
                short = run_method(method, model, a, stream[:m], cfg)
                longer = run_method(method, model, a, stream[:m + ext], cfg)
                ok = ok and short.step_mse.tobytes() \
                    == longer.step_mse[:m].tobytes()
                ok = ok and all(p.tobytes() == q.tobytes() for p, q in
                                zip(short.preds, longer.preds[:m]))
        verdict(3, "causality under stream extension (50 pairs x 4 methods)", ok)


class TestCriterion4DelayAudit:
    def test_criterion_04_delayed_feedback(self):
        k = b = 24
        model = build_model(48, k, d=16, n_blocks=3, seed=41)
        stream = make_stream(600, 48, k, 2, seed=42)
        cfg = deploy_cfg(horizon=k, lookback=48, hist_batch=b,
                         lr_adapter=0.001, lr_head=1e-4)
        adapter = build_adapter(16, seed=43)
        traces = [run_adaptz(model, adapter, stream, cfg),
                  run_fogd(model, stream, cfg),
                  run_ogd(model, stream, cfg)]
        total = 0
        violations = 0
        for trace in traces:
            total += len(trace.cache_reads)
            violations += sum(1 for reader, read in trace.cache_reads
                              if read > reader - k)
        verdict(4, f"delay audit k=b=24 ({total} reads)",
                total > 0 and violations == 0)


class TestCriterion5DriftOrdering:
    def test_criterion_05_synthetic_concept_drift(self, drift_lab):
        wins = 0
        for seed in SEEDS:
            m = drift_lab["mse"][seed]
            if m["adaptz"] < m["ori"] and m["fogd"] < m["ori"] \
                    and m["adaptz"] <= m["fogd"]:
                wins += 1
        ok = wins >= 4 and drift_lab["t_core"] < 120.0
        verdict(5, f"drift ordering adaptz<ori, fogd<ori, adaptz<=fogd "
                   f"({wins}/5 seeds, {drift_lab['t_core']:.0f}s)", ok)


class TestCriterion6Ablation:
    def test_criterion_06_ablation_ordering(self, drift_lab):
        wins = 0
        for seed in SEEDS:
            m = drift_lab["mse"][seed]
            if m["adaptz"] <= m["nograd"] and m["adaptz"] <= m["nofeat"]:
                wins += 1
        verdict(6, f"ablation ordering ({wins}/5 seeds)", wins >= 4)


class TestCriterion7StationaryOffset:
    def test_criterion_07_fogd_offset_convergence(self):
        # stream built so the ideal fix is one constant feature offset; the
        # tap sits at the last block, making the resume path affine
        L, k, C, d, T = 32, 1, 2, 16, 3000
        model = build_model(L, k, d=d, n_blocks=3, tap_index=2, seed=11)
        rng = np.random.default_rng(42)
        series = np.zeros((T + L + k, C))
        for t in range(1, len(series)):
            series[t] = 0.8 * series[t - 1] + rng.standard_normal(C)
        offset = 0.5 * rng.standard_normal((C, d))
        noise_std = 0.05
        stream = []
        noises = []
        for i in range(T):
            o = L - 1 + i
            x = series[o - L + 1:o + 1]
            x_norm, stats = normalize(x)
            z = encode(model, x_norm)
            clean = head_forward_with_tape(model, z + offset, stats)[0]
            eps = noise_std * rng.standard_normal((k, C))
            stream.append(Sample(x=x, y=clean + eps, origin=o))
            noises.append(eps)
        oracle = float(np.mean([np.mean(e ** 2) for e in noises[T // 2:]]))
        cfg = deploy_cfg(method="fogd", horizon=k, lookback=L, lr_fogd=0.01)
        trace = run_fogd(model, stream, cfg)
        tail = float(np.mean(trace.step_mse[T // 2:]))
        gap = abs(tail - oracle) / oracle
        verdict(7, f"fogd stationary-offset tail within 10% of oracle "
                   f"(gap {100 * gap:.1f}%)", gap <= 0.10)


class TestCriterion8RegretBound:
    def test_criterion_08_dynamic_regret_sweep(self):
        t0 = time.perf_counter()
        runs = run_sweep(seeds=20)
        holds = sum(1 for r in runs if r.R_d <= r.bound)
        closed = (1.0 - 0.25 ** 40) / 0.75
        geo = run_oco(make_problem("geometric", 2025))
        elapsed = time.perf_counter() - t0
        ok = (holds == 60 and abs(geo.R_d - closed) <= 1e-8
              and elapsed < 60.0)
        verdict(8, f"regret bound sweep ({holds}/60, closed-form gap "
                   f"{abs(geo.R_d - closed):.1e}, {elapsed:.1f}s)", ok)


class TestCriterion9FrozenDeployment:
    def test_criterion_09_hisgrad_only_adaptation(self, drift_lab):
        trained = drift_lab["trained"]
        adapter = drift_lab["adapter"]
        test = drift_lab["test"]
        cfg = deploy_cfg(lr_adapter=0.0, lr_head=0.0)
        frozen = run_adaptz(trained, adapter, test, cfg)
        same_model = all(p.tobytes() == q.tobytes()
                         for (_, p), (_, q) in zip(trained.named_params(),
                                                   frozen.final_model.named_params()))
        same_adapter = all(p.tobytes() == q.tobytes()
                           for (_, p), (_, q) in zip(adapter.named_params(),
                                                     frozen.final_adapter.named_params()))
        differs = not np.array_equal(frozen.step_mse,
                                     drift_lab["ori_trace"].step_mse)
        drift_lab["frozen_trace"] = frozen
        verdict(9, "frozen deployment: zero parameter bytes changed, "
                   "trace still differs from ori",
                same_model and same_adapter and differs)


class TestCriterion10Determinism:
    def test_criterion_10_byte_identical_reruns(self, drift_lab, tmp_path):
        ok = True
        # engine trace rerun
        cfg = deploy_cfg(lr_adapter=0.0, lr_head=0.0)
        again = run_adaptz(drift_lab["trained"], drift_lab["adapter"],
                           drift_lab["test"], cfg)
        first = drift_lab.get("frozen_trace")
        if first is None:
            first = run_adaptz(drift_lab["trained"], drift_lab["adapter"],
                               drift_lab["test"], cfg)
        p1, p2 = str(tmp_path / "t1.csv"), str(tmp_path / "t2.csv")
        write_trace_csv(first, p1)
        write_trace_csv(again, p2)
        ok = ok and Path(p1).read_bytes() == Path(p2).read_bytes()
        # full experiment plan rerun
        overrides = ["length=420", "change_point=320", "magnitude=1.0",
                     "lookback=16", "hist_batch=4", "horizon=4", "width=8",
                     "blocks=2", "train_epochs=2", "pretrain_epochs=1",
                     "method=ori", "method=adaptz"]
        outs = []
        for sub in ("a", "b"):
            plan = parse_config(None, overrides + [f"out_dir={tmp_path / sub}"])
            results, path = run_plan(plan)
            blob = Path(path).read_bytes()
            for r in results:
                blob += (tmp_path / sub / f"trace_{r.run_id}.csv").read_bytes()
            outs.append(blob)
        ok = ok and outs[0] == outs[1]
        # regret report rerun
        r1 = "\n".join(report_rows(run_sweep(seeds=3)))
        r2 = "\n".join(report_rows(run_sweep(seeds=3)))
        ok = ok and r1.encode() == r2.encode()
        verdict(10, "byte-identical reruns (trace, plan outputs, report)", ok)

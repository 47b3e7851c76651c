#!/usr/bin/env python3
"""Driftcast benchmark: cost per deployed stream step of each method, set-up
time, the regret sweep, peak memory and, with ``--trace 1``, a per-layer
breakdown from a traced pass.

Run from the repository root:

    python3 bench/run.py --workload drift-lab --seed 1 --seconds 30 --trace 0

The program is imported from ``src/`` of the checkout the script sits in;
the workload seed only shapes the generated inputs. The last line of
standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``. See bench/README.md.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import sys
import time
import traceback
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Tuple

import speed
import tracer
from tracer import METHODS

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = Path(__file__).resolve().parent
OUT_DIR = ROOT / ".bench_out"
REFERENCES = BENCH_DIR / "references.json"

SETUPS = 3                # set-ups per run; setup_s is their median
SHORT_METHODS = ("ori", "fogd", "ogd")
SHORT_S = 4.0             # the short methods repeat their passes this long per round
SLICE_S = 0.3             # ... taking turns, each for at least this long
REL_TOL = 1e-12           # ROADMAP drift rule for a recorded reference mse
SELF_SUM_TOL = 0.02       # the traced breakdown may miss this share of adaptz
BLAS_THREADS = "1"


@dataclass(frozen=True)
class Size:
    length: int
    change_point: int
    L: int
    k: int
    d: int
    n_blocks: int
    fit_epochs: int
    pretrain_epochs: int
    hist_batch: int
    sweep_seeds: int


# "full" is the drift_lab fixture of tests/test_acceptance.py and the
# `driftcast regret --family all` sweep; "tiny" only checks the harness.
SIZES = {
    "full": Size(6000, 4800, 96, 24, 64, 3, 5, 3, 24, 20),
    "tiny": Size(400, 320, 16, 4, 8, 3, 1, 1, 4, 1),
}


@dataclass(frozen=True)
class Workload:
    kind: str
    channels: int
    via_csv: bool          # set-up reads the stream back with load_csv


WORKLOADS = {
    "drift-lab": Workload("concept_drift", 2, False),
    "wide-channels": Workload("mean_shift", 16, True),
}


def parse_args(argv: Optional[List[str]] = None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=float)
    p.add_argument("--trace", required=True, type=int, choices=(0, 1))
    p.add_argument("--size", default="full", choices=sorted(SIZES),
                   help="stream and model size; 'tiny' is for the smoke test")
    return p.parse_args(argv)


def import_driftcast() -> None:
    """Import driftcast from this checkout's src/ and nowhere else."""
    src = ROOT / "src"
    if not (src / "driftcast" / "__init__.py").is_file():
        raise SystemExit(f"bench: no driftcast sources under {src}")
    sys.path.insert(0, str(src))
    import driftcast
    if Path(driftcast.__file__).resolve().parent != src / "driftcast":
        raise SystemExit(f"bench: driftcast imported from {driftcast.__file__}")


def environment(seed: int) -> Dict[str, object]:
    import numpy as np
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(np),
        "seed": seed,
        "git_commit": git_commit(),
    }


def blas_threads(np) -> str:
    """Thread count OpenBLAS reports; falls back to the value we set."""
    import ctypes
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(libs.glob("*openblas*")) if libs.is_dir() else ():
        handle = ctypes.CDLL(str(lib))
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(handle, sym, None)
            if fn is not None:
                fn.argtypes = []
                fn.restype = ctypes.c_int
                return str(fn())
    return f"{BLAS_THREADS} (requested)"


def git_commit() -> str:
    """HEAD of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


class Gate:
    """Checks every timed operation and counts attempts and failures."""

    def __init__(self, refs: Dict[str, float]) -> None:
        self.refs = refs
        self.attempted = 0
        self.failed = 0
        self.errors: List[str] = []
        self._first: Dict[str, object] = {}

    def _count(self, what: str, problems: List[str]) -> bool:
        self.attempted += 1
        if problems:
            self.failed += 1
            self.errors.append(f"{what}: {'; '.join(problems)}")
        return not problems

    def crashed(self, what: str, n_ops: int = 1) -> None:
        self.attempted += n_ops
        self.failed += n_ops
        self.errors.append(f"{what}: raised\n{traceback.format_exc()}")

    def same_as_first(self, key: str, value) -> bool:
        return self._first.setdefault(key, value) == value

    def setup(self, fingerprint: str) -> bool:
        ok = self.same_as_first("setup", fingerprint)
        return self._count("setup", [] if ok else ["model or adapter differs"])

    def method(self, m: str, trace) -> bool:
        problems = []
        mse = trace.mse
        if not math.isfinite(mse):
            problems.append(f"non-finite mse {mse!r}")
        if not self.same_as_first(f"method:{m}", trace.step_mse.tobytes()):
            problems.append("step_mse differs from an earlier repeat")
        ref = self.refs.get(m)
        if ref is not None and not abs(mse - ref) <= REL_TOL * abs(ref):
            problems.append(f"mse {mse!r} is off the reference {ref!r}")
        return self._count(m, problems)

    def oco(self, index: int, row: str, passed: bool) -> bool:
        problems = [] if passed else ["check_bound failed"]
        if not self.same_as_first(f"oco:{index}", row):
            problems.append("report row differs from an earlier repeat")
        return self._count(f"oco {row.split(',', 2)[:2]}", problems)


@dataclass
class Samples:
    """(wall ns, rescaled ns) of every timed set-up, method pass (call to
    return of run_method) and run_sweep; see speed.py."""
    setups: List[Tuple[int, float]] = field(default_factory=list)
    passes: Dict[str, List[Tuple[int, float]]] = field(
        default_factory=lambda: {m: [] for m in METHODS})
    sweeps: List[Tuple[int, float]] = field(default_factory=list)
    sweep_steps: int = 0      # OCO steps in one sweep

    def us_per_step(self, m: str, steps: int) -> Optional[float]:
        return _median_rescaled(self.passes[m], steps * 1e3)


def _median_rescaled(timed: List[Tuple[int, float]], per: float) -> Optional[float]:
    return statistics.median(t[1] for t in timed) / per if timed else None


class Bench:
    def __init__(self, args: argparse.Namespace) -> None:
        from driftcast import datastream
        self.wl = WORKLOADS[args.workload]
        self.size = SIZES[args.size]
        self.seed = args.seed
        refs = json.loads(REFERENCES.read_text())
        self.gate = Gate(refs.get(args.workload, {}).get(args.size, {})
                         .get(str(args.seed), {}))
        self.warm = self.size.k + self.size.hist_batch - 1
        self.test_steps = 0
        self.gauge = speed.Gauge()
        OUT_DIR.mkdir(exist_ok=True)
        self.csv_path = OUT_DIR / f"{args.workload}-{args.size}-seed{args.seed}.csv"
        # materialised before any timing; wide-channels reads it in set-up
        datastream.write_csv(self.generate(), str(self.csv_path))

    def generate(self):
        from driftcast import datastream
        s = self.size
        spec = datastream.DriftSpec(kind=self.wl.kind, length=s.length,
                                    channels=self.wl.channels,
                                    change_points=[s.change_point],
                                    magnitudes=[1.0], seed=self.seed)
        if self.wl.kind == "mean_shift":
            return datastream.gen_mean_shift(spec)
        return datastream.gen_concept_drift(spec)

    def set_up(self):
        """Everything before the first deployed prediction."""
        from driftcast import adapter, datastream, engine, forecaster
        s, seed = self.size, self.seed
        if self.wl.via_csv:
            frame = datastream.load_csv(str(self.csv_path))
        else:
            frame = self.generate()
        train, val, test = datastream.chrono_split(frame, datastream.SplitSpec(),
                                                   L=s.L, k=s.k)
        model = forecaster.build_model(s.L, s.k, d=s.d, n_blocks=s.n_blocks, seed=seed)
        trained = forecaster.offline_train(model, train, epochs=s.fit_epochs,
                                           lr=1e-3, batch=32, seed=seed + 1)
        net = adapter.build_adapter(trained.d, seed=seed + 2)
        net = engine.pretrain_adapter(trained, net, val, epochs=s.pretrain_epochs,
                                      lr=1e-3, seed=seed, hist_batch=s.hist_batch)
        cfg = engine.EngineConfig(method="adaptz", horizon=s.k, lookback=s.L,
                                  hist_batch=s.hist_batch, seed=seed).validated()
        return trained, net, test, cfg

    def timed_setup(self, samples: List[Tuple[int, float]]):
        gc.collect()
        try:
            dep, *took = self.gauge.timed(self.set_up)
        except Exception:
            self.gate.crashed("setup")
            return None
        samples.append(tuple(took))
        h = hashlib.sha256()
        for _, arr in dep[0].named_params() + dep[1].named_params():
            h.update(arr.tobytes())
        self.gate.setup(f"{h.hexdigest()}:{len(dep[2])}")
        self.test_steps = len(dep[2])
        return dep

    def run_method(self, m: str, dep, samples: Optional[Samples] = None):
        from driftcast import engine
        model, net, test, cfg = dep
        # each pass starts from the same collector state
        gc.collect()
        try:
            trace, *took = self.gauge.timed(engine.run_method, m, model, net, test, cfg)
        except Exception:
            self.gate.crashed(m)
            return None
        if self.gate.method(m, trace) and samples is not None:
            samples.passes[m].append(tuple(took))
        return trace

    def sweep(self, samples: Optional[Samples] = None) -> None:
        from driftcast import regret
        n_runs = len(regret.FAMILIES) * self.size.sweep_seeds
        gc.collect()
        try:
            runs, *took = self.gauge.timed(regret.run_sweep, regret.FAMILIES,
                                           seeds=self.size.sweep_seeds,
                                           base_seed=self.seed)
        except Exception:
            self.gate.crashed("run_sweep", n_runs)
            return
        rows = regret.report_rows(runs)[1:]
        ok = all([self.gate.oco(i, row, regret.check_bound(run).passed)
                  for i, (run, row) in enumerate(zip(runs, rows))])
        if not ok or samples is None:
            return
        samples.sweeps.append(tuple(took))
        samples.sweep_steps = sum(run.T for run in runs)

    def warm_up(self, dep) -> None:
        """One untimed pass of each method over a prefix of the test split
        that reaches past warm-up, so first-call costs stay out of timings."""
        from driftcast import engine
        model, net, test, cfg = dep
        prefix = test[:self.warm + 100]
        for m in METHODS:
            try:
                engine.run_method(m, model, net, prefix, cfg)
            except Exception:
                self.gate.crashed(f"{m} warm-up")

    def measure(self, seconds: float) -> Samples:
        """SETUPS set-ups, then rounds of every method and the regret sweep
        until `seconds` have passed since the start (at least one round),
        with the speed gauge's timer running throughout."""
        self.gauge.start()
        try:
            return self._measure(seconds)
        finally:
            self.gauge.stop()

    def _measure(self, seconds: float) -> Samples:
        samples = Samples()
        t_begin = time.perf_counter()
        dep = None
        for _ in range(SETUPS):
            dep = self.timed_setup(samples.setups) or dep
        if dep is None:
            return samples
        self.warm_up(dep)
        while True:
            # two sweeps a round, with the adaptz pass between them, so that
            # their median averages over two of the machine's states
            self.short_methods(dep, samples)
            self.sweep(samples)
            self.run_method("adaptz", dep, samples)
            self.sweep(samples)
            if time.perf_counter() - t_begin >= seconds:
                return samples

    def short_methods(self, dep, samples: Samples) -> Dict[str, object]:
        """Passes of the short methods for SHORT_S, taking turns in slices of
        SLICE_S, so each method's passes spread over the whole stretch and
        each gets about the same time. Returns each method's last trace."""
        last = {}
        t_round = time.perf_counter()
        while time.perf_counter() - t_round < SHORT_S:
            for m in SHORT_METHODS:
                t_slice = time.perf_counter()
                while True:
                    trace = self.run_method(m, dep, samples)
                    if trace is not None:
                        last[m] = trace
                    if time.perf_counter() - t_slice >= SLICE_S:
                        break
        return last

    def traced_pass(self, untraced_us: Dict[str, float]) -> Tuple[Dict[str, float], Samples]:
        """Set-up, a round of every method and the sweep, all traced; the
        traced method passes are timed as untraced ones are, but with probes
        only before and after each pass, so that no probe falls in a span.
        Returns the per-layer metrics and the traced passes' samples."""
        from driftcast import datastream
        tr = tracer.Tracer()
        with tr.wrapping(tracer.SETUP_TARGETS):
            self.generate()
            dep = self.timed_setup([])
            if not self.wl.via_csv:
                datastream.load_csv(str(self.csv_path))
        cache_reads = {}
        samples = Samples()
        if dep is not None:
            with tr.wrapping(tracer.DEPLOY_TARGETS):
                for m, trace in self.short_methods(dep, samples).items():
                    cache_reads[m] = len(trace.cache_reads)
                trace = self.run_method("adaptz", dep, samples)
                if trace is not None:
                    cache_reads["adaptz"] = len(trace.cache_reads)
        with tr.wrapping(tracer.SWEEP_TARGETS):
            self.sweep()
        tr.write_csv(str(OUT_DIR / f"spans-{self.csv_path.stem}.csv"))
        traced_us = {m: samples.us_per_step(m, self.test_steps) for m in METHODS}
        layer = tracer.layer_metrics(tr, self.warm, self.size.fit_epochs, untraced_us,
                                     {m: us for m, us in traced_us.items() if us},
                                     cache_reads)
        return layer, samples


def end_to_end(samples: Samples, test_steps: int) -> Dict[str, dict]:
    out: Dict[str, dict] = {}
    if samples.setups:
        out["setup_s"] = {"value": _median_rescaled(samples.setups, 1e9), "unit": "s"}
    for m in METHODS:
        us = samples.us_per_step(m, test_steps)
        if us is not None:
            out[f"{m}_us_per_step"] = {"value": us, "unit": "us/step"}
    if samples.sweeps:
        value = _median_rescaled(samples.sweeps, samples.sweep_steps * 1e3)
        out["regret_us_per_step"] = {"value": value, "unit": "us/step"}
    # ru_maxrss is in KiB on Linux
    out["peak_rss_mb"] = {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                          "unit": "MiB"}
    return out


def self_sum_check(untraced: Dict[str, float], layer: Dict[str, float],
                   traced: Samples) -> Optional[str]:
    """Do the per-step self times along adaptz's calls add up to
    adaptz_us_per_step x (1 + trace.overhead_frac.adaptz), the traced pass?
    They fall short when run_adaptz calls a function the tracer does not
    list, or spends time outside its span. Span times are wall times, so
    they are rescaled as the traced pass was."""
    keys = ("adaptz.self_sum.us_per_step", "trace.overhead_frac.adaptz")
    if "adaptz" not in untraced or any(k not in layer for k in keys):
        return None
    wall, rescaled = traced.passes["adaptz"][0]
    got = layer[keys[0]] * rescaled / wall
    want = untraced["adaptz"] * (1 + layer[keys[1]])
    gap = got / want - 1
    verdict = "ok" if abs(gap) <= SELF_SUM_TOL else "FAILED"
    return (f"{verdict} trace check: self times along adaptz's calls sum to "
            f"{got:.1f} us/step against adaptz_us_per_step x (1 + overhead) = "
            f"{want:.1f}, gap {gap:+.2%} (tolerance {SELF_SUM_TOL:.0%})")


def prepare() -> None:
    """Pin BLAS threads (before numpy is first imported) and import driftcast."""
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = BLAS_THREADS
    import_driftcast()


def main(argv: Optional[List[str]] = None) -> int:
    args = parse_args(argv)
    prepare()
    env = environment(args.seed)
    bench = Bench(args)
    samples = bench.measure(args.seconds)
    e2e = end_to_end(samples, bench.test_steps)
    if args.trace:
        units = dict(tracer.per_layer_units())
        untraced = {m: e2e[f"{m}_us_per_step"]["value"] for m in METHODS
                    if f"{m}_us_per_step" in e2e}
        layer, traced = bench.traced_pass(untraced)
        metrics = {k: {"value": v, "unit": units[k]} for k, v in layer.items()}
        check = self_sum_check(untraced, layer, traced)
    else:
        metrics = e2e
        check = None
    gate = bench.gate
    bench.csv_path.unlink(missing_ok=True)
    if not gate.attempted:
        raise SystemExit("bench: no operation was attempted")

    for name, m in e2e.items():
        print(f"{args.workload:14s} {name:22s} {m['value']:14.4f} {m['unit']}")
    frac = gate.failed / gate.attempted
    print(f"{args.workload:14s} {'ops_failed_frac':22s} {frac:14.4f} fraction"
          f" ({gate.failed} of {gate.attempted} operations)")
    if check:
        print(check, file=sys.stderr if check.startswith("FAILED") else sys.stdout)
    for err in gate.errors:
        print(f"FAILED {err}", file=sys.stderr)
    record = {"workload": args.workload, "size": args.size, "trace": args.trace,
              "env": env, "samples": asdict(samples), "end_to_end": e2e,
              "metrics": metrics, "trace_check": check, "errors": gate.errors}
    (OUT_DIR / f"result-{bench.csv_path.stem}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1) + "\n")
    print("env " + json.dumps(env))
    print(json.dumps({"correct": gate.failed == 0,
                      "attempted": gate.attempted, "failed": gate.failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

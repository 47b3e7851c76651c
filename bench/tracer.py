"""Span tracing and per-layer metrics for the driftcast benchmark.

The tracer wraps driftcast's public functions under the module attributes
their callers look up (``driftcast.engine.encode`` for the online loop and
``driftcast.forecaster.encode`` for ``predict_with_tape``), so nothing under
``src/`` changes. Each call records one span: id, parent span, run id (the
id of the top-level span it descends from), name, start, end and an
optional tag. Spans stay in memory and are written out once, at the end.

Self time is a span's duration minus the durations of its direct children;
calls are single-threaded and nested, so the children never overlap.
"""

from __future__ import annotations

import importlib
import statistics
import time
from contextlib import contextmanager
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple

METHODS = ("ori", "fogd", "ogd", "adaptz")
FAMILIES = ("geometric", "static", "piecewise")

# (module, attribute) pairs, each the name a caller resolves at call time.
SETUP_TARGETS = (
    ("datastream", "gen_concept_drift"), ("datastream", "gen_mean_shift"),
    ("datastream", "load_csv"), ("datastream", "chrono_split"),
    ("forecaster", "offline_train"), ("engine", "pretrain_adapter"),
)
DEPLOY_TARGETS = tuple(("engine", f"run_{m}") for m in METHODS) + (
    ("engine", "encode"), ("engine", "head_forward_with_tape"),
    ("engine", "mse_with_grad"), ("engine", "compute_hisgrad"),
    ("engine", "grad_wrt_feature"), ("engine", "grad_wrt_last_layer"),
    ("engine", "adapter_forward_with_tape"),
    ("engine", "adapter_backward_tape"), ("engine", "sgd_step"),
    ("engine", "predict_with_tape"), ("engine", "param_grads"),
    ("engine", "apply_param_step"), ("forecaster", "encode"),
)
SWEEP_TARGETS = (("regret", "run_oco"),)

# Span names are "<defining module>.<function>", whichever alias was called.
ENCODE = "forecaster.encode"
HISGRAD = "engine.compute_hisgrad"
# Calls the adaptz loop makes for its delayed window update once the step's
# next hisgrad is computed: they are direct children of run_adaptz.
WINDOW_NAMES = frozenset({
    "forecaster.grad_wrt_last_layer", "forecaster.grad_wrt_feature",
    "adapter.adapter_backward_tape", "adapter.sgd_step",
    "diffmath.mse_with_grad",
})
PER_CALL = (
    ("forecaster.encode", "forecaster.encode"),
    ("forecaster.head_forward_with_tape", "forecaster.head_forward_with_tape"),
    ("forecaster.grad_wrt_feature", "forecaster.grad_wrt_feature"),
    ("forecaster.grad_wrt_last_layer", "forecaster.grad_wrt_last_layer"),
)
# run_adaptz's own loop and the functions it calls, directly or not
ADAPTZ_SELF = (
    "engine.run_adaptz", "forecaster.encode", "adapter.adapter_forward_with_tape",
    "forecaster.head_forward_with_tape", "diffmath.mse_with_grad",
    "engine.compute_hisgrad", "forecaster.grad_wrt_feature",
    "forecaster.grad_wrt_last_layer", "adapter.adapter_backward_tape",
    "adapter.sgd_step",
)


def per_layer_units() -> List[Tuple[str, str]]:
    """Every per-layer metric the traced run can report, with its unit."""
    out = [("engine.window_update.us_per_step", "us/step"),
           ("engine.window_update.share_of_adaptz", "fraction"),
           ("engine.window_update.wall_share_of_adaptz", "fraction"),
           ("engine.hisgrad.us_per_call", "us")]
    out += [(f"engine.loop_self.us_per_step.{m}", "us/step") for m in METHODS]
    for m in METHODS:
        out += [(f"engine.step_us.p50.{m}", "us"), (f"engine.step_us.p99.{m}", "us")]
    out += [(f"engine.cache_reads.per_step.{m}", "count") for m in METHODS]
    out.append(("engine.pretrain_adapter_s", "s"))
    for metric, _ in PER_CALL:
        out += [(f"{metric}.us_per_call", "us"), (f"{metric}.calls_per_step", "count")]
    out += [("forecaster.param_grads.us_per_call", "us"),
            ("forecaster.apply_param_step.us_per_call", "us"),
            ("forecaster.offline_train.ms_per_epoch", "ms"),
            ("adapter.forward.us_per_call", "us"),
            ("adapter.backward.us_per_call", "us"),
            ("adapter.backward.calls_per_step", "count"),
            ("adapter.sgd_step.us_per_call", "us")]
    out += [(f"diffmath.mse_with_grad.calls_per_step.{m}", "count") for m in METHODS]
    out += [("datastream.generate_s", "s"), ("datastream.load_csv_s", "s"),
            ("datastream.chrono_split_s", "s")]
    out += [(f"regret.run_oco.ms_per_run.{f}", "ms") for f in FAMILIES]
    out += [(f"trace.overhead_frac.{m}", "fraction") for m in METHODS]
    out += [(f"adaptz.self_share.{name}", "fraction") for name in ADAPTZ_SELF]
    out.append(("adaptz.self_sum.us_per_step", "us/step"))
    return out


# span record fields
SID, PARENT, RUN, NAME, START, END, TAG = range(7)


class Tracer:
    """Collects spans from the functions it wraps while `wrapping` is active."""

    def __init__(self) -> None:
        self.spans: List[Optional[tuple]] = []
        self.wrapped: set = set()          # span names that existed and were wrapped
        self._stack: List[Tuple[int, int]] = []    # (span id, run id) of open calls

    def _wrap(self, name: str, fn: Callable) -> Callable:
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns
        tag_family = name == "regret.run_oco"     # tag OCO runs by family

        def traced(*args, **kwargs):
            sid = len(spans)
            parent, run = stack[-1] if stack else (-1, sid)
            spans.append(None)      # keeps ids in start order
            stack.append((sid, run))
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                # a tuple of atoms, which the cyclic GC stops tracking, so
                # hundreds of thousands of spans do not slow its passes
                spans[sid] = (sid, parent, run, name, start, end,
                              args[0].family if tag_family else None)

        traced.__wrapped__ = fn
        return traced

    @contextmanager
    def wrapping(self, targets: Sequence[Tuple[str, str]]) -> Iterator[None]:
        """Wrap every target that exists; a missing one is skipped, so the
        metrics that need it come out absent instead of failing the run."""
        saved = []
        try:
            for mod_name, attr in targets:
                mod = importlib.import_module(f"driftcast.{mod_name}")
                fn = getattr(mod, attr, None)
                if fn is None:
                    continue
                name = f"{fn.__module__.rsplit('.', 1)[-1]}.{fn.__name__}"
                saved.append((mod, attr, fn))
                setattr(mod, attr, self._wrap(name, fn))
                self.wrapped.add(name)
            yield
        finally:
            for mod, attr, fn in reversed(saved):
                setattr(mod, attr, fn)

    def write_csv(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("id,parent,run,name,start_ns,end_ns,tag\n")
            for s in self.spans:
                fh.write(f"{s[SID]},{s[PARENT]},{s[RUN]},{s[NAME]},{s[START]},"
                         f"{s[END]},{'' if s[TAG] is None else s[TAG]}\n")


def _dur(span: tuple) -> int:
    return span[END] - span[START]


def self_times(spans: List[tuple]) -> List[int]:
    """Self time of every span, in nanoseconds, indexed by span id."""
    own = [_dur(s) for s in spans]
    for s in spans:
        if s[PARENT] >= 0:
            own[s[PARENT]] -= _dur(s)
    return own


class _Run:
    """One top-level deployment span with each descendant's step index."""

    def __init__(self, spans: List[tuple], root: tuple, warm: int) -> None:
        self.root = root
        self.warm = warm
        self.desc: List[Tuple[int, tuple]] = []     # (step, span) in start order
        self.encode_starts: List[int] = []
        step = -1
        for s in spans[root[SID] + 1:]:
            if s[RUN] != root[SID]:
                break
            if s[PARENT] == root[SID] and s[NAME] == ENCODE:
                step += 1
                self.encode_starts.append(s[START])
            self.desc.append((step, s))
        self.steps = len(self.encode_starts)

    @property
    def steps_past_warm(self) -> int:
        return self.steps - self.warm

    def past_warm(self, name: str) -> List[tuple]:
        return [s for step, s in self.desc if step >= self.warm and s[NAME] == name]


def _mean_us(spans: List[tuple]) -> Optional[float]:
    return sum(_dur(s) for s in spans) / len(spans) / 1e3 if spans else None


def layer_metrics(tracer: Tracer, warm: int, fit_epochs: int,
                  untraced_us: Dict[str, float], traced_us: Dict[str, float],
                  cache_reads: Dict[str, int]) -> Dict[str, float]:
    """Per-layer metrics from the spans of one traced pass.

    warm is the first 0-based step at which every method learns (k + b - 1);
    per-step counts and per-call times use the steps from there on, pooled
    over every traced run of a method. A metric whose span name was not
    wrapped, or that has no samples, is left out. untraced_us and traced_us
    hold each method's us/step, untraced and traced, by the same estimator.
    """
    spans, have = tracer.spans, tracer.wrapped
    own = self_times(spans)
    tops = [s for s in spans if s[PARENT] < 0]
    runs: Dict[str, List[_Run]] = {}
    for s in tops:
        for m in METHODS:
            if s[NAME] == f"engine.run_{m}":
                run = _Run(spans, s, warm)
                if run.steps_past_warm >= 1:
                    runs.setdefault(m, []).append(run)
    out: Dict[str, Optional[float]] = {}

    for m, group in runs.items():
        steps = sum(run.steps for run in group)
        out[f"engine.loop_self.us_per_step.{m}"] = (
            sum(own[run.root[SID]] for run in group) / steps / 1e3)
        gaps = [(b - a) / 1e3 for run in group
                for a, b in zip(run.encode_starts, run.encode_starts[1:])]
        if len(gaps) >= 2:
            out[f"engine.step_us.p50.{m}"] = statistics.median(gaps)
            out[f"engine.step_us.p99.{m}"] = statistics.quantiles(
                gaps, n=100, method="inclusive")[98]
        if m in cache_reads:
            out[f"engine.cache_reads.per_step.{m}"] = cache_reads[m] / group[0].steps
        if "diffmath.mse_with_grad" in have:
            out[f"diffmath.mse_with_grad.calls_per_step.{m}"] = (
                sum(len(run.past_warm("diffmath.mse_with_grad")) for run in group)
                / sum(run.steps_past_warm for run in group))
        if m in untraced_us and m in traced_us:
            out[f"trace.overhead_frac.{m}"] = traced_us[m] / untraced_us[m] - 1.0

    def per_call(name: str) -> Optional[float]:
        if name not in have:
            return None
        return _mean_us([s for group in runs.values() for run in group
                         for s in run.past_warm(name)])

    adaptz = runs["adaptz"][0] if "adaptz" in runs else None

    def per_step(name: str) -> Optional[float]:
        if name not in have or adaptz is None:
            return None
        return len(adaptz.past_warm(name)) / adaptz.steps_past_warm

    for metric, name in PER_CALL + (("adapter.backward", "adapter.adapter_backward_tape"),):
        out[f"{metric}.us_per_call"] = per_call(name)
        out[f"{metric}.calls_per_step"] = per_step(name)
    out["adapter.forward.us_per_call"] = per_call("adapter.adapter_forward_with_tape")
    out["adapter.sgd_step.us_per_call"] = per_call("adapter.sgd_step")
    out["forecaster.param_grads.us_per_call"] = per_call("forecaster.param_grads")
    out["forecaster.apply_param_step.us_per_call"] = per_call("forecaster.apply_param_step")
    out["engine.hisgrad.us_per_call"] = per_call(HISGRAD)

    if adaptz is not None:
        root_id = adaptz.root[SID]
        window_ns = 0       # the named calls of the window update
        tail_ns = 0         # wall time from hisgrad's end to the next step
        hisgrad_end = None
        for step, s in adaptz.desc:
            if s[PARENT] != root_id:
                continue
            if s[NAME] == ENCODE:
                if hisgrad_end is not None:
                    tail_ns += s[START] - hisgrad_end
                hisgrad_end = None
            elif s[NAME] == HISGRAD:
                hisgrad_end = s[END] if step >= warm else None
            elif hisgrad_end is not None and s[NAME] in WINDOW_NAMES:
                window_ns += _dur(s)
        if hisgrad_end is not None:
            tail_ns += adaptz.root[END] - hisgrad_end
        if HISGRAD in have:
            out["engine.window_update.us_per_step"] = (
                window_ns / adaptz.steps_past_warm / 1e3)
            out["engine.window_update.share_of_adaptz"] = window_ns / _dur(adaptz.root)
            out["engine.window_update.wall_share_of_adaptz"] = tail_ns / _dur(adaptz.root)
        by_name: Dict[str, int] = {}
        for _, s in adaptz.desc:
            by_name[s[NAME]] = by_name.get(s[NAME], 0) + own[s[SID]]
        by_name[adaptz.root[NAME]] = own[root_id]
        listed = [name for name in ADAPTZ_SELF if name in have]
        for name in listed:
            out[f"adaptz.self_share.{name}"] = by_name.get(name, 0) / _dur(adaptz.root)
        out["adaptz.self_sum.us_per_step"] = (
            sum(by_name.get(name, 0) for name in listed) / adaptz.steps / 1e3)

    def top_seconds(*names: str) -> Optional[float]:
        picked = [_dur(s) for s in tops if s[NAME] in names]
        return statistics.mean(picked) / 1e9 if picked else None

    out["engine.pretrain_adapter_s"] = top_seconds("engine.pretrain_adapter")
    fit = top_seconds("forecaster.offline_train")
    out["forecaster.offline_train.ms_per_epoch"] = (
        None if fit is None else fit * 1e3 / fit_epochs)
    out["datastream.generate_s"] = top_seconds("datastream.gen_concept_drift",
                                               "datastream.gen_mean_shift")
    out["datastream.load_csv_s"] = top_seconds("datastream.load_csv")
    out["datastream.chrono_split_s"] = top_seconds("datastream.chrono_split")
    for fam in FAMILIES:
        oco = [s for s in tops if s[NAME] == "regret.run_oco" and s[TAG] == fam]
        if oco:
            out[f"regret.run_oco.ms_per_run.{fam}"] = _mean_us(oco) / 1e3
    return {k: v for k, v in out.items() if v is not None}

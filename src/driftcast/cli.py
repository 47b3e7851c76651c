"""Experiment orchestration: config parsing, run grids, CSV outputs.

Config files are flat `key=value` text; blank lines and `#` comments are
ignored and repeating a key appends to a list (change_point, magnitude,
method, horizon, seed; the last three must not repeat a value). `--set
key=value` wins over the file with a warning. Every run is summarized as
one row of results.csv and emits a trace_<run-id>.csv, where the run id is
a content hash of the resolved per-run configuration.
"""

from __future__ import annotations

import argparse
import hashlib
import math
import os
import sys
import traceback
from dataclasses import dataclass, replace
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from .adapter import build_adapter
from .datastream import (DriftSpec, SeriesFrame, SplitSpec, chrono_split,
                         gen_concept_drift, gen_mean_shift, load_csv,
                         min_series_length, write_csv)
from .engine import (EngineConfig, MetricsTrace, pretrain_adapter, run_method,
                     write_trace_csv)
from .forecaster import build_model, offline_train
from .regret import FAMILIES, check_bound, report_rows, run_sweep

# method token: (engine method, use_feat, use_grad); the flags are the adaptz
# adapter's own
METHOD_TOKENS = {"ori": ("ori", True, True), "fogd": ("fogd", True, True),
                 "ogd": ("ogd", True, True), "adaptz": ("adaptz", True, True),
                 "adaptz-nograd": ("adaptz", True, False),
                 "adaptz-nofeat": ("adaptz", False, True)}
PRETRAIN_EPOCH_CHOICES = (0, 1, 3, 5, 10)


# every key a run config may contain, with its scalar/list arity; the scalar
# keys as {key: (field, cast)} of the dataclass each fills, and keys a config
# leaves out take that dataclass's defaults. The EngineConfig fields are keys
# too, cast by the type of their default.
_ENGINE_DEFAULTS = EngineConfig()
_LIST_KEYS = ("method", "horizon", "seed", "change_point", "magnitude")
_ENGINE_KEYS = {name: (name, type(default))
                for name, default in vars(_ENGINE_DEFAULTS).items()
                if name not in _LIST_KEYS}
_DRIFT_KEYS = {"kind": ("kind", str), "length": ("length", int),
               "channels": ("channels", int), "ar_coeff": ("ar_coeff", float),
               "noise_std": ("noise_std", float), "gen_seed": ("seed", int)}
_SPLIT_KEYS = {key: (key, float) for key in ("train_frac", "val_frac", "test_frac")}
_PLAN_KEYS = {"width": ("model_width", int), "blocks": ("model_blocks", int),
              "tap_index": ("tap_index", int), "train_epochs": ("train_epochs", int),
              "train_lr": ("train_lr", float), "train_batch": ("train_batch", int),
              "pretrain_epochs": ("pretrain_epochs", int),
              "pretrain_lr": ("pretrain_lr", float), "out_dir": ("out_dir", str)}
_SCALAR_KEYS = (tuple(_ENGINE_KEYS) + ("data", "dataset") + tuple(_DRIFT_KEYS)
                + tuple(_SPLIT_KEYS) + tuple(_PLAN_KEYS))
VALID_KEYS = tuple(sorted(_LIST_KEYS + _SCALAR_KEYS))
_GEN_KEYS = tuple(_DRIFT_KEYS) + ("change_point", "magnitude")


@dataclass
class ExperimentPlan:
    dataset: str
    data_path: Optional[str]
    drift: Optional[DriftSpec]
    methods: List[str]
    horizons: List[int]
    seeds: List[int]
    split: SplitSpec
    engine: EngineConfig
    model_width: int = 64
    model_blocks: int = 3
    tap_index: Optional[int] = None
    train_epochs: int = 5
    train_lr: float = 0.001
    train_batch: int = 32
    pretrain_epochs: int = 3
    pretrain_lr: float = 0.001
    out_dir: str = "runs"


def read_kv_file(path: str) -> List[Tuple[str, str]]:
    pairs: List[Tuple[str, str]] = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected key=value, got {line!r}")
            key, value = line.split("=", 1)
            pairs.append((key.strip(), value.strip()))
    return pairs


def _merge_pairs(file_pairs: Sequence[Tuple[str, str]],
                 override_pairs: Sequence[Tuple[str, str]],
                 valid: Sequence[str], warn=None) -> Dict[str, List[str]]:
    for key, _ in list(file_pairs) + list(override_pairs):
        if key not in valid:
            raise ValueError(
                f"unknown config key {key!r}; valid keys: {', '.join(sorted(valid))}")
    merged: Dict[str, List[str]] = {}
    for key, value in file_pairs:
        merged.setdefault(key, []).append(value)
    overridden: Dict[str, List[str]] = {}
    for key, value in override_pairs:
        if key in merged and key not in overridden and warn is not None:
            warn(f"warning: --set {key} overrides config file value {merged[key]}")
        overridden.setdefault(key, []).append(value)
    merged.update(overridden)
    return merged


def _get(conf: Dict[str, List[str]], key: str, cast, default):
    if key not in conf:
        return default
    raw = conf[key][-1]
    try:
        return cast(raw)
    except ValueError:
        raise ValueError(f"config key {key}: cannot parse {raw!r}") from None


def _get_list(conf: Dict[str, List[str]], key: str, cast, default):
    if key not in conf:
        return list(default)
    try:
        return [cast(raw) for raw in conf[key]]
    except ValueError:
        raise ValueError(f"config key {key}: cannot parse {conf[key]!r}") from None


def parse_overrides(sets: Sequence[str]) -> List[Tuple[str, str]]:
    pairs = []
    for item in sets:
        if "=" not in item:
            raise ValueError(f"--set expects key=value, got {item!r}")
        key, value = item.split("=", 1)
        pairs.append((key.strip(), value.strip()))
    return pairs


def _given(conf: Dict[str, List[str]], keys: Dict[str, Tuple[str, Callable]]
           ) -> Dict[str, object]:
    """{field: cast value} for each of `keys` that the config sets."""
    return {name: _get(conf, key, cast, None)
            for key, (name, cast) in keys.items() if key in conf}


def _drift_from_conf(conf: Dict[str, List[str]]) -> DriftSpec:
    """DriftSpec from the generator keys; one change point at 0.8 * length
    with magnitude 1.0 unless the config lists its own."""
    values = _given(conf, _DRIFT_KEYS)
    if values.get("seed", 0) < 0:
        raise ValueError("gen_seed must be >= 0")
    length = values.get("length", DriftSpec.length)
    change_points = _get_list(conf, "change_point", int, [4 * length // 5])
    magnitudes = _get_list(conf, "magnitude", float, [1.0] * len(change_points))
    return DriftSpec(change_points=change_points, magnitudes=magnitudes, **values)


def parse_config(path: Optional[str] = None,
                 overrides: Sequence[str] = ()) -> ExperimentPlan:
    """Resolve a config file plus --set overrides into an ExperimentPlan.

    A key the config leaves out takes the default of the dataclass it fills
    (EngineConfig, DriftSpec, SplitSpec or ExperimentPlan). Every horizon is
    checked here, so a bad grid cell fails before any run trains. A
    generated stream too short for every horizon (under L + k + 10 rows) is
    rejected here too; one that only some horizons fit leaves the others to
    fail as error rows while their siblings run.
    """
    file_pairs = read_kv_file(path) if path is not None else []
    over_pairs = parse_overrides(overrides)
    conf = _merge_pairs(file_pairs, over_pairs, VALID_KEYS,
                        warn=lambda msg: print(msg, file=sys.stderr))
    methods = _get_list(conf, "method", str, [_ENGINE_DEFAULTS.method])
    for m in methods:
        if m not in METHOD_TOKENS:
            raise ValueError(f"unknown method {m!r}; valid: {', '.join(METHOD_TOKENS)}")
    data_path = _get(conf, "data", str, None)
    drift = None if data_path is not None else _drift_from_conf(conf)
    if data_path is not None:
        bad = [k for k in _GEN_KEYS if k in conf]
        if bad:
            raise ValueError(f"config mixes data= with generator keys {bad}")
        dataset = _get(conf, "dataset", str,
                       os.path.splitext(os.path.basename(data_path))[0])
    else:
        dataset = _get(conf, "dataset", str, drift.kind)
    if any(ch in dataset for ch in ',"\r\n'):
        raise ValueError(f"config key dataset: {dataset!r} has a comma, quote or "
                         "line break, which results.csv cannot hold; set "
                         "dataset= to a plain label")
    horizons = _get_list(conf, "horizon", int, [_ENGINE_DEFAULTS.horizon])
    seeds = _get_list(conf, "seed", int, [_ENGINE_DEFAULTS.seed])
    for key, values in (("method", methods), ("horizon", horizons), ("seed", seeds)):
        repeated = [v for i, v in enumerate(values) if v in values[:i]]
        if repeated:
            raise ValueError(f"config key {key}: value {repeated[0]!r} repeated")
    engine = EngineConfig(method=METHOD_TOKENS[methods[0]][0],
                          horizon=horizons[0], seed=seeds[0],
                          **_given(conf, _ENGINE_KEYS))
    for horizon in horizons:
        replace(engine, horizon=horizon).validated()
    if drift is not None:
        need = min_series_length(engine.lookback, min(horizons))
        if drift.length < need:
            raise ValueError(f"config key length: {drift.length} is below {need} "
                             "(lookback + horizon + 10), the shortest stream a "
                             "horizon of the grid can split")
    plan = ExperimentPlan(
        dataset=dataset, data_path=data_path, drift=drift, methods=methods,
        horizons=horizons, seeds=seeds,
        split=SplitSpec(**_given(conf, _SPLIT_KEYS)), engine=engine,
        **_given(conf, _PLAN_KEYS))
    blocks, tap, inf = plan.model_blocks, plan.tap_index, float("inf")
    for ok, msg in ((min(plan.seeds) >= 0, "seed must be >= 0"),
                    (plan.model_width >= 1, "width must be >= 1"),
                    (blocks >= 1, "blocks must be >= 1"),
                    (tap is None or 0 <= tap < blocks, "tap_index must be in [0, blocks)"),
                    (plan.train_epochs >= 0, "train_epochs must be >= 0"),
                    (0 < plan.train_lr < inf, "train_lr must be > 0 and finite"),
                    (plan.train_batch >= 1, "train_batch must be >= 1"),
                    (plan.pretrain_epochs in PRETRAIN_EPOCH_CHOICES,
                     f"pretrain_epochs must be one of {PRETRAIN_EPOCH_CHOICES}"),
                    (0 < plan.pretrain_lr < inf, "pretrain_lr must be > 0 and finite")):
        if not ok:
            raise ValueError(msg)
    return plan


def _run_id(parts: Dict[str, str]) -> str:
    blob = "\n".join(f"{k}={parts[k]}" for k in sorted(parts))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()[:12]


def _resolved_parts(plan: ExperimentPlan, cfg: EngineConfig,
                    token: str) -> Dict[str, str]:
    """{key: value} of every setting of one grid cell: each key of the key
    maps, read back from the dataclass it fills (a string as it is, any other
    value as its repr), plus the token's adapter flags."""
    _, use_feat, use_grad = METHOD_TOKENS[token]
    parts = {"dataset": plan.dataset, "method": token,
             "horizon": str(cfg.horizon), "seed": str(cfg.seed),
             "use_feat": repr(use_feat), "use_grad": repr(use_grad)}
    sources = [(plan, _PLAN_KEYS), (plan.split, _SPLIT_KEYS), (cfg, _ENGINE_KEYS)]
    if plan.data_path is not None:
        parts["data"] = plan.data_path
    else:
        sources.append((plan.drift, _DRIFT_KEYS))
        parts["change_points"] = ",".join(map(str, plan.drift.change_points))
        parts["magnitudes"] = ",".join(map(repr, plan.drift.magnitudes))
    for obj, keys in sources:
        for key, (name, _) in keys.items():
            value = getattr(obj, name)
            parts[key] = value if isinstance(value, str) else repr(value)
    del parts["out_dir"]                    # where results go, not what runs
    return parts


def _generate(spec: DriftSpec) -> SeriesFrame:
    gen = gen_mean_shift if spec.kind == "mean_shift" else gen_concept_drift
    return gen(spec)


def load_plan_frame(plan: ExperimentPlan) -> SeriesFrame:
    if plan.data_path is not None:
        return load_csv(plan.data_path)
    return _generate(plan.drift)


@dataclass
class RunResult:
    dataset: str
    method: str
    horizon: int
    seed: int
    mse: Optional[float]
    status: str
    run_id: str
    trace: Optional[MetricsTrace] = None
    imp: Optional[float] = None


def execute_plan(plan: ExperimentPlan) -> List[RunResult]:
    """Run the full grid in deterministic order; failures do not stop siblings."""
    frame = load_plan_frame(plan)
    splits: Dict[int, tuple] = {}
    trained_models: Dict[Tuple[int, int], object] = {}
    results: List[RunResult] = []
    for horizon in plan.horizons:
        for seed in plan.seeds:
            base_cfg = replace(plan.engine, horizon=horizon, seed=seed)
            for token in plan.methods:
                method, use_feat, use_grad = METHOD_TOKENS[token]
                cfg = replace(base_cfg, method=method)
                run_id = _run_id(_resolved_parts(plan, cfg, token))
                try:
                    if horizon not in splits:
                        splits[horizon] = chrono_split(frame, plan.split,
                                                       cfg.lookback, horizon)
                    train, val, test = splits[horizon]
                    if not test:
                        raise ValueError("test split is empty")
                    # each split an adaptz window steps on must fill it once
                    stepped = [("test", test, "the deployed adapter")]
                    if plan.pretrain_epochs > 0:
                        stepped.insert(0, ("val", val, "pretraining"))
                    for name, split, what in stepped:
                        released = max(len(split) - horizon, 0)
                        if method == "adaptz" and released < cfg.hist_batch:
                            raise ValueError(
                                f"hist_batch {cfg.hist_batch} is above the {released} "
                                f"records {name} releases, so {what} cannot step")
                    if (horizon, seed) not in trained_models:
                        model = build_model(cfg.lookback, horizon,
                                            d=plan.model_width,
                                            n_blocks=plan.model_blocks,
                                            tap_index=plan.tap_index, seed=seed)
                        trained_models[(horizon, seed)] = offline_train(
                            model, train, plan.train_epochs, lr=plan.train_lr,
                            batch=plan.train_batch, seed=seed + 1)
                    trained = trained_models[(horizon, seed)]
                    adapter_net = None
                    if method == "adaptz":
                        adapter_net = build_adapter(trained.d,
                                                    use_feat=use_feat,
                                                    use_grad=use_grad,
                                                    seed=seed + 2)
                        if plan.pretrain_epochs > 0:
                            adapter_net = pretrain_adapter(
                                trained, adapter_net, val, plan.pretrain_epochs,
                                lr=plan.pretrain_lr, seed=seed,
                                hist_batch=cfg.hist_batch)
                    trace = run_method(method, trained, adapter_net, test, cfg)
                    if not math.isfinite(trace.mse):
                        raise ValueError(f"non-finite mse {trace.mse!r}")
                    results.append(RunResult(plan.dataset, token, horizon, seed,
                                             trace.mse, "ok", run_id, trace))
                except Exception:
                    traceback.print_exc(file=sys.stderr)
                    results.append(RunResult(plan.dataset, token, horizon, seed,
                                             None, "error", run_id))
    by_key = {(r.dataset, r.horizon, r.seed, r.method): r for r in results}
    for r in results:
        if r.method == "adaptz" and r.status == "ok":
            ori = by_key.get((r.dataset, r.horizon, r.seed, "ori"))
            if ori is not None and ori.status == "ok" and ori.mse:
                r.imp = (ori.mse - r.mse) / ori.mse
    return results


RESULTS_HEADER = "dataset,method,horizon,seed,mse,status,imp"


def results_rows(results: List[RunResult]) -> List[str]:
    rows = [RESULTS_HEADER]
    for r in results:
        mse = "" if r.mse is None else repr(float(r.mse))
        imp = "" if r.imp is None else repr(float(r.imp))
        rows.append(f"{r.dataset},{r.method},{r.horizon},{r.seed},{mse},{r.status},{imp}")
    return rows


def run_plan(plan: ExperimentPlan) -> Tuple[List[RunResult], str]:
    """Execute and write results.csv plus one trace CSV per successful run.

    Returns (results, results_path); process exit status should be nonzero
    iff any run aborted.
    """
    os.makedirs(plan.out_dir, exist_ok=True)
    results = execute_plan(plan)
    results_path = os.path.join(plan.out_dir, "results.csv")
    with open(results_path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(results_rows(results)) + "\n")
    for r in results:
        if r.trace is not None:
            write_trace_csv(r.trace, os.path.join(plan.out_dir,
                                                  f"trace_{r.run_id}.csv"))
    return results, results_path


def _cmd_run(args) -> int:
    plan = parse_config(args.config, args.set or [])
    results, results_path = run_plan(plan)
    for r in results:
        mse = "" if r.mse is None else f" mse={r.mse:.6f}"
        print(f"[{r.status}] {r.dataset} {r.method} h={r.horizon} seed={r.seed}{mse}")
    print(f"wrote {results_path}")
    return 0 if all(r.status == "ok" for r in results) else 1


def _cmd_gen(args) -> int:
    pairs = read_kv_file(args.drift)
    conf = _merge_pairs(pairs, [], _GEN_KEYS)
    frame = _generate(_drift_from_conf(conf))
    write_csv(frame, args.out)
    print(f"wrote {args.out} ({frame.T} rows, {frame.C} channels)")
    return 0


def _cmd_regret(args) -> int:
    families = FAMILIES if args.family == "all" else (args.family,)
    for fam in families:
        if fam not in FAMILIES:
            raise ValueError(f"unknown family {fam!r}; valid: {', '.join(FAMILIES)} or all")
    if args.seeds < 1:
        raise ValueError("--seeds must be >= 1")
    runs = run_sweep(families, seeds=args.seeds, base_seed=2025)
    text = "\n".join(report_rows(runs)) + "\n"
    sys.stdout.write(text)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    n_fail = sum(1 for run in runs if not check_bound(run).passed)
    return 0 if n_fail == 0 else 1


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="driftcast",
        description="streaming forecaster adaptation experiments")
    sub = parser.add_subparsers(dest="cmd", required=True)
    p_run = sub.add_parser("run", help="execute an experiment plan")
    p_run.add_argument("--config", default=None, help="flat key=value config file")
    p_run.add_argument("--set", action="append", metavar="key=value",
                       help="override a config key (wins over the file)")
    p_gen = sub.add_parser("gen", help="generate a synthetic drift CSV")
    p_gen.add_argument("--drift", required=True, help="drift spec file (key=value)")
    p_gen.add_argument("--out", required=True, help="output CSV path")
    p_reg = sub.add_parser("regret", help="run the dynamic-regret bound sweep")
    p_reg.add_argument("--family", required=True,
                       help=f"one of {', '.join(FAMILIES)}, or all")
    p_reg.add_argument("--seeds", type=int, default=20)
    p_reg.add_argument("--out", default=None, help="also write the report here")
    args = parser.parse_args(argv)
    try:
        if args.cmd == "run":
            return _cmd_run(args)
        if args.cmd == "gen":
            return _cmd_gen(args)
        return _cmd_regret(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

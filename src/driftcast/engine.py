"""Streaming deployment under k-step delayed feedback.

One stream loop (`_deploy`) drives four methods over the same
strict-time-order sample stream. It owns every prediction: each step the
head runs once on the feature z plus the method's feature-space correction
(ori and ogd add none). A method supplies only that correction and how it
learns from its cache:

  ori     frozen pretrained model, no adaptation
  fogd    persistent feature-space correction, delayed single-sample step
  ogd     delayed single-sample step on all model parameters
  adaptz  dual-path adapter producing the correction from the current
          feature and a batched historical feature-gradient; adapter and
          head are updated from a b-sample window of cached predictions

The loop also owns the delay: correct never sees the step's target; the
loop adds it to the record only to store it in one ring cache sized to the
method's window, and learn runs once [s-k-window+1, s-k] is released. So
the first m predictions never depend on how much stream follows, and the
cache logs every (reader_step, read_step) pair for the delay audit.

The adaptz window gradient is a sum of per-record shares. A share depends
only on what its record holds (its tapes with their weight snapshots, its
prediction and its target), so each record is backpropagated once, when
its label is released, and every window just sums the stored shares.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from .adapter import (AdapterNet, AdapterTape, adapter_backward_tape,
                      adapter_forward_with_tape, sgd_step)
from .diffmath import mse_with_grad
from .forecaster import (ForecastModel, NormStats, Sample, Tape,
                         apply_param_step, encode, grad_wrt_feature,
                         grad_wrt_last_layer, head_forward_with_tape,
                         param_grads, predict_with_tape)

METHODS = ("ori", "fogd", "ogd", "adaptz")


@dataclass
class EngineConfig:
    method: str = "adaptz"
    horizon: int = 24
    lookback: int = 96
    hist_batch: int = 24
    lr_adapter: float = 0.0003
    lr_head: float = 0.00003
    lr_fogd: float = 0.001
    lr_ogd: float = 0.000003
    freeze_online: bool = False
    seed: int = 2025

    def validated(self) -> "EngineConfig":
        if self.method not in METHODS:
            raise ValueError(f"method {self.method!r} not in {METHODS}")
        if self.horizon < 1:
            raise ValueError("horizon must be >= 1")
        if self.hist_batch < 1:
            raise ValueError("hist_batch must be >= 1")
        if self.lookback < 2:
            raise ValueError("lookback must be >= 2")
        # zero is allowed so frozen-equivalence runs can switch learning off
        for name in ("lr_adapter", "lr_head", "lr_fogd", "lr_ogd"):
            if not 0 <= getattr(self, name) < np.inf:
                raise ValueError(f"{name} must be >= 0 and finite")
        return self


@dataclass
class StepRecord:
    """Per-step cache entry; only adaptz writes adapter_tape and share."""

    y: Optional[np.ndarray] = None
    x: Optional[np.ndarray] = None
    z: Optional[np.ndarray] = None
    yhat: Optional[np.ndarray] = None
    stats: Optional[NormStats] = None
    head_tape: Optional[Tape] = None
    adapter_tape: Optional[AdapterTape] = None
    share: Optional[np.ndarray] = None  # flat window-gradient term (adaptz)


class RingCache:
    """Bounded step-keyed store with an instrumented read log."""

    def __init__(self, capacity: int) -> None:
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.capacity = capacity
        self._data: Dict[int, StepRecord] = {}
        self.read_log: List[Tuple[int, int]] = []

    def put(self, t: int, rec: StepRecord) -> None:
        self._data[t] = rec
        for key in [key for key in self._data if key <= t - self.capacity]:
            del self._data[key]

    def get(self, t: int, reader: Optional[int] = None) -> StepRecord:
        if t not in self._data:
            raise RuntimeError(
                f"cache miss for step {t}: evicted or never stored")
        if reader is not None:
            self.read_log.append((reader, t))
        return self._data[t]

    def __contains__(self, t: int) -> bool:
        return t in self._data


@dataclass
class MetricsTrace:
    method: str
    steps: List[int]
    step_mse: np.ndarray
    preds: List[np.ndarray]
    final_model: ForecastModel
    final_adapter: Optional[AdapterNet] = None
    cache_reads: List[Tuple[int, int]] = field(default_factory=list)

    @property
    def mse(self) -> float:
        return float(np.mean(self.step_mse)) if len(self.step_mse) else float("nan")

    def cum_mse(self) -> np.ndarray:
        return np.cumsum(self.step_mse) / np.arange(1, len(self.step_mse) + 1)


def write_trace_csv(trace: MetricsTrace, path: str) -> None:
    lines = ["t,step_mse,cum_mse"]
    for t, sm, cm in zip(trace.steps, trace.step_mse, trace.cum_mse()):
        lines.append(f"{t},{repr(float(sm))},{repr(float(cm))}")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def _check_sample(model: ForecastModel, sample: Sample, prev_origin: Optional[int],
                  channels: Optional[int]) -> int:
    x, y = sample.x, sample.y
    if x.shape[0] != model.L:
        raise ValueError(f"sample x rows {x.shape[0]} != lookback {model.L}")
    if channels is not None and x.shape[1] != channels:
        raise ValueError(f"channel count changed: {x.shape[1]} != {channels}")
    if y.shape != (model.k, x.shape[1]):
        raise ValueError(f"sample y shape {y.shape} != ({model.k}, {x.shape[1]})")
    if prev_origin is not None and sample.origin <= prev_origin:
        raise ValueError(
            f"out-of-order stream timestamps: {sample.origin} after {prev_origin}")
    return x.shape[1]


def compute_hisgrad(model: ForecastModel, cache: RingCache, t: int, k: int,
                    b: int) -> np.ndarray:
    """Average over the window [t-k-b+1, t-k] of the per-sample gradient of
    the squared forecast error with respect to the cached feature, evaluated
    under the model's current parameters. A window that reaches before
    step 0 is a cache miss.

    The window is stacked into one (b*C)-row pass: the model is channel
    independent, so b*C rows behave like one sample with b*C channels.
    """
    recs = [cache.get(i, reader=t) for i in range(t - k - b + 1, t - k + 1)]
    C, d = recs[0].z.shape
    rows = np.vstack([rec.z for rec in recs])
    stacked = NormStats(mean=np.concatenate([r.stats.mean for r in recs]),
                        std=np.concatenate([r.stats.std for r in recs]))
    y_stack = np.hstack([rec.y for rec in recs])            # k x (b*C)
    yhat, tape = head_forward_with_tape(model, rows, stacked)
    g_yhat = 2.0 * (yhat - y_stack) / (model.k * C)         # per-sample MSE grad
    g_rows = grad_wrt_feature(model, tape, g_yhat)
    return g_rows.reshape(b, C, d).mean(axis=0)


def _record_share(model: ForecastModel, a: AdapterNet, rec: StepRecord,
                  b: int, cfg: EngineConfig) -> np.ndarray:
    """The record's term of the window-mean loss gradient as one flat vector:
    head weight and bias (if lr_head > 0), then the adapter parameters in
    named_params order (if lr_adapter > 0). Only the record's own tapes are
    read, so the term is the same in every window the record enters."""
    _, g_sample = mse_with_grad(rec.yhat, rec.y)
    g_y = g_sample / b                                      # window-mean loss
    parts: List[np.ndarray] = []
    if cfg.lr_head > 0:
        gw, gb = grad_wrt_last_layer(model, rec.head_tape, g_y)
        parts += [gw.ravel(), gb]
    if cfg.lr_adapter > 0:
        g_z = grad_wrt_feature(model, rec.head_tape, g_y)
        grads = adapter_backward_tape(rec.adapter_tape, g_z)
        parts += [grads[name].ravel() for name, _ in a.named_params()]
    return np.concatenate(parts)


def _window_update(model: ForecastModel, a: AdapterNet, cache: RingCache,
                   s: int, k: int, b: int, cfg: EngineConfig) -> None:
    """One delayed update from the b cached adjusted predictions.

    Each record is backpropagated once, through its own tape (parameters as
    they were), the first time it enters a window, i.e. when its label is
    released; its share is stored on the record and the tapes are dropped.
    The window gradient is the left-to-right sum of the b stored shares.
    """
    acc: Optional[np.ndarray] = None
    for i in range(s - k - b + 1, s - k + 1):
        rec = cache.get(i, reader=s)
        if rec.share is None:
            rec.share = _record_share(model, a, rec, b, cfg)
            rec.head_tape = rec.adapter_tape = None
        if acc is None:
            acc = rec.share.copy()
        else:
            acc += rec.share
    off = 0
    if cfg.lr_head > 0:
        head = model.head
        n_w, n_b = head.weight.size, head.bias.size
        gw = acc[:n_w].reshape(head.weight.shape)
        gb = acc[n_w:n_w + n_b]
        head.weight = head.weight - cfg.lr_head * gw
        head.bias = head.bias - cfg.lr_head * gb
        off = n_w + n_b
    if cfg.lr_adapter > 0:
        a_grads: Dict[str, np.ndarray] = {}
        for name, p in a.named_params():
            a_grads[name] = acc[off:off + p.size].reshape(p.shape)
            off += p.size
        sgd_step(a, a_grads, cfg.lr_adapter)


def _deployed_copy(model: ForecastModel, cfg: EngineConfig) -> ForecastModel:
    """Validate the run settings and return the copy a method may update."""
    cfg.validated()
    if cfg.horizon != model.k:
        raise ValueError(f"cfg.horizon {cfg.horizon} != model horizon {model.k}")
    if cfg.lookback != model.L:
        raise ValueError(f"cfg.lookback {cfg.lookback} != model lookback {model.L}")
    return model.clone()


def _deploy(method: str, model: ForecastModel, stream: Sequence[Sample],
            correct: Optional[Callable[[np.ndarray, StepRecord], np.ndarray]],
            learn: Optional[Callable[[int, RingCache], None]], window: int,
            adapter_net: Optional[AdapterNet] = None) -> MetricsTrace:
    """The one stream loop, owner of the prediction and the k-step delay: at
    step s it runs the head on z + correct(z, rec) (on z if correct is None)
    for a record rec of the sample's x, z and stats and writes yhat and
    head_tape to rec. Unless learn is None, it then adds the target y, stores
    rec in a RingCache(k + window) and calls learn(s, cache) once the window
    [s-k-window+1, s-k] is complete."""
    cache = RingCache(model.k + window)
    steps: List[int] = []
    mses: List[float] = []
    preds: List[np.ndarray] = []
    prev = channels = None
    for s, sample in enumerate(stream):
        channels = _check_sample(model, sample, prev, channels)
        prev = sample.origin
        z, stats, _ = encode(model, sample.x)
        rec = StepRecord(x=sample.x, z=z, stats=stats)      # views, no copy
        z_in = z if correct is None else z + correct(z, rec)
        rec.yhat, rec.head_tape = head_forward_with_tape(model, z_in, stats)
        loss, _ = mse_with_grad(rec.yhat, sample.y)         # metrics-only read
        steps.append(sample.origin)
        mses.append(loss)
        preds.append(rec.yhat)
        if learn is not None:
            rec.y = sample.y                        # read from step s + k on
            cache.put(s, rec)
            if s >= model.k + window - 1:
                learn(s, cache)
    return MetricsTrace(method, steps, np.asarray(mses), preds,
                        final_model=model, final_adapter=adapter_net,
                        cache_reads=cache.read_log)


def run_ori(model: ForecastModel, stream: Sequence[Sample],
            cfg: EngineConfig) -> MetricsTrace:
    """Frozen baseline: predict every sample, adapt nothing."""
    return _deploy("ori", _deployed_copy(model, cfg), stream, None, None, 1)


def run_adaptz(model: ForecastModel, adapter_net: AdapterNet,
               stream: Sequence[Sample], cfg: EngineConfig) -> MetricsTrace:
    """Adapter-corrected deployment with the delayed window update; the
    adapter's own use_feat/use_grad flags choose its input paths. A frozen
    run still learns, since the next hisgrad needs the window."""
    model = _deployed_copy(model, cfg)
    a = adapter_net.clone()
    k, b = model.k, cfg.hist_batch
    hisgrad: Optional[np.ndarray] = None
    learning = (not cfg.freeze_online) and (cfg.lr_adapter > 0 or cfg.lr_head > 0)

    def correct(z, rec):
        nonlocal hisgrad
        if hisgrad is None:
            hisgrad = np.zeros_like(z)
        delta, rec.adapter_tape = adapter_forward_with_tape(a, z, hisgrad)
        return delta

    def learn(s, cache):
        nonlocal hisgrad
        # next step's hisgrad, evaluated before this step's parameter update
        hisgrad = compute_hisgrad(model, cache, s, k, b)
        if learning:
            _window_update(model, a, cache, s, k, b, cfg)

    return _deploy("adaptz", model, stream, correct, learn, b, adapter_net=a)


def run_fogd(model: ForecastModel, stream: Sequence[Sample],
             cfg: EngineConfig) -> MetricsTrace:
    """Feature-space delayed gradient descent on a persistent correction."""
    model = _deployed_copy(model, cfg)
    delta: Optional[np.ndarray] = None

    def correct(z, rec):
        nonlocal delta
        if delta is None:
            delta = np.zeros_like(z)
        return delta

    def learn(s, cache):
        nonlocal delta
        rec = cache.get(s - model.k, reader=s)
        _, g_y = mse_with_grad(rec.yhat, rec.y)
        g_delta = grad_wrt_feature(model, rec.head_tape, g_y)
        delta = delta - cfg.lr_fogd * g_delta

    live = cfg.lr_fogd > 0 and not cfg.freeze_online
    return _deploy("fogd", model, stream, correct, learn if live else None, 1)


def run_ogd(model: ForecastModel, stream: Sequence[Sample],
            cfg: EngineConfig) -> MetricsTrace:
    """Delayed single-sample gradient step on all model parameters."""
    model = _deployed_copy(model, cfg)

    def learn(s, cache):
        rec = cache.get(s - model.k, reader=s)
        yh_d, ftape = predict_with_tape(model, rec.x)
        _, g_y = mse_with_grad(yh_d, rec.y)
        apply_param_step(model, param_grads(model, ftape, g_y), cfg.lr_ogd)

    live = cfg.lr_ogd > 0 and not cfg.freeze_online
    return _deploy("ogd", model, stream, None, learn if live else None, 1)


def run_method(method: str, model: ForecastModel, adapter_net: Optional[AdapterNet],
               stream: Sequence[Sample], cfg: EngineConfig) -> MetricsTrace:
    runs = {"ori": run_ori, "fogd": run_fogd, "ogd": run_ogd}
    if method in runs:
        return runs[method](model, stream, cfg)
    if method != "adaptz":
        raise ValueError(f"unknown method {method!r}")
    if adapter_net is None:
        raise ValueError("adaptz needs an adapter")
    return run_adaptz(model, adapter_net, stream, cfg)


def pretrain_adapter(model: ForecastModel, adapter_net: AdapterNet,
                     val_samples: Sequence[Sample], epochs: int,
                     lr: float = 0.001, seed: int = 2025,
                     hist_batch: int = 24) -> AdapterNet:
    """Calibrate the adapter by replaying the validation split.

    Runs the adaptz loop over the split once per epoch with caches reset,
    carrying the adapter across epochs; the head stays frozen (it only
    moves during deployment). The replay is chronological and fully
    deterministic, so `seed` is accepted for interface parity only.
    """
    if epochs < 0:
        raise ValueError("epochs must be >= 0")
    a = adapter_net.clone()
    if epochs == 0 or not len(val_samples):
        return a
    cfg = EngineConfig(method="adaptz", horizon=model.k, lookback=model.L,
                       hist_batch=hist_batch, lr_adapter=lr, lr_head=0.0,
                       seed=seed)
    for _ in range(epochs):
        trace = run_adaptz(model, a, val_samples, cfg)
        a = trace.final_adapter
    return a

"""Streaming deployment under k-step delayed feedback.

One stream loop (`_deploy`) drives four methods over the same
strict-time-order sample stream. It owns every prediction: each step the
head runs once on the feature z plus the method's feature-space correction
(ori and ogd add none). A method supplies only that correction and how it
learns from one released record:

  ori     frozen pretrained model, no adaptation
  fogd    persistent feature-space correction, delayed single-sample step
  ogd     delayed single-sample step on all model parameters
  adaptz  dual-path adapter producing the correction from the current
          feature and a batched historical feature-gradient; adapter and
          head are updated from a b-sample window of released predictions

The loop also owns the delay and the score. correct never sees the step's
target; at step s learn is handed the record of step s-k, once, and nothing
else, so the first m predictions never depend on how much stream follows.
The loop logs the (reader_step, read_step) pair of each record it hands
out. It scores each prediction once, and the loss gradient g_y rides on
the record: fogd and adaptz step on it, as delayed OGD does.

adaptz keeps its own window of the last b released records, placed by one
release count n: record i sits in slot i % b. Its window gradient is a sum
of per-record shares, each keyed by parameter name. A share depends only
on what its record holds (its tapes with their weight snapshots and its
g_y), and each record is handed over once, so each record is
backpropagated once, when its label is released. The window sum slides,
name by name: each window adds its newest share and subtracts the one its
slot held, and it is re-summed exactly whenever n % b == 0, when slots
0..b-1 hold the window in order. The hisgrad window is read as one slice
of a ring that holds each released record's hisgrad_terms twice, so
neither per-step cost grows with b. In adaptz only the head and the
adapter move, so a record's pass through the blocks past the tap is fixed
once it is released, and so is every part of its hisgrad that the head
does not touch: the head's input, the post-tap ReLU masks and the loss
coefficients that fold the denormalization, the target and the MSE
scale. hisgrad_terms makes them once, on release, and each step's hisgrad
runs the current head on them, then its GEMMs and masks back to the tap.

The loop consumes steps from one front end (_front_end). It reads the
stream's windows through forecaster._windows, which checks the samples,
and checks the origins rise, all before step 0. It then draws and
normalizes the windows CHUNK at a time, in chunks counted from step 0,
by one reduction per chunk, which runs the windows side by side when
there is more than one channel and gives each window the bytes of its
own call, so no step's bytes depend on how much stream follows. A step
carries its origin, its target y (a view) and its normalized window, a
view into the chunk's result; ogd's re-score runs its full pass from
that window without normalizing again. Each step's z comes from encode,
on the step's normalized window; encode stops at the tap, and the loop's
one head_forward_with_tape is the only run of the blocks past it. In
pretraining only the adapter moves, so pretrain_adapter draws val's
steps once, before the first epoch, and its later epochs replay the
first epoch's hisgrad sequence (byte-equal, and kept only for that one
call). The steps it holds keep each origin, y, z and stats but not the
normalized window, which only ogd reads: a window is a view that would
keep its whole chunk alive.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import (Callable, Deque, Dict, Iterable, Iterator, List, Optional,
                    Sequence, Tuple)

import numpy as np

from .adapter import (AdapterNet, AdapterTape, adapter_backward_tape,
                      adapter_forward_with_tape, sgd_step)
from .diffmath import descend, mse_with_grad
from .forecaster import (ForecastModel, NormStats, Sample, Tape, _windows,
                         apply_param_step, encode, grad_wrt_feature,
                         grad_wrt_last_layer, head_forward_with_tape, normalize,
                         param_grads, predict_with_tape, tail_forward)

METHODS = ("ori", "fogd", "ogd", "adaptz")
CHUNK = 64          # windows per normalize call in _front_end, from step 0
# (origin, y, x_norm, z, stats); pretraining's steps hold no x_norm (None),
# since only ogd reads a record's window and pretraining never runs ogd
Step = Tuple[int, np.ndarray, Optional[np.ndarray], np.ndarray, NormStats]


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
        # zero is allowed: a method whose rates are all 0 learns nothing
        for name in ("lr_adapter", "lr_head", "lr_fogd", "lr_ogd"):
            if not 0 <= getattr(self, name) < np.inf:
                raise ValueError(f"{name} must be >= 0 and finite")
        return self


@dataclass
class StepRecord:
    """A step's record, held until its release k steps later; y and g_y (the
    loss gradient) come after correct runs, and only adaptz sets adapter_tape.
    x_norm is the step's normalized window (L x C), None in pretraining, and
    stats its NormStats."""

    y: Optional[np.ndarray] = None
    g_y: Optional[np.ndarray] = None
    x_norm: Optional[np.ndarray] = None
    z: Optional[np.ndarray] = None
    stats: Optional[NormStats] = None
    head_tape: Optional[Tape] = None
    adapter_tape: Optional[AdapterTape] = None


@dataclass
class MetricsTrace:
    method: str
    steps: List[int]
    step_mse: np.ndarray
    preds: List[np.ndarray]
    final_model: ForecastModel
    final_adapter: Optional[AdapterNet] = None
    # (reader_step, read_step) of each record handed to learn, one per step
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


def _front_end(model: ForecastModel, stream: Sequence[Sample]) -> Iterator[Step]:
    """Each step of the stream as (origin, y, x_norm, z, stats), from one
    normalize per CHUNK of windows. The samples and the order of their
    origins are checked before step 0. z is encoded when its step is drawn,
    so it sees the model as it is then (ogd moves the blocks)."""
    draw, origins = _windows(model, stream)
    for prev, origin in zip(origins, origins[1:]):
        if origin <= prev:
            raise ValueError(f"out-of-order stream timestamps: {origin} after {prev}")
    for lo in range(0, len(origins), CHUNK):
        x, ys = draw(slice(lo, lo + CHUNK))
        x_norm, stats = normalize(x)
        for i, origin in enumerate(origins[lo:lo + CHUNK]):
            yield (origin, ys[i], x_norm[i], encode(model, x_norm[i]),
                   NormStats(stats.mean[i], stats.std[i]))


def hisgrad_terms(model: ForecastModel, rec: StepRecord) -> Tuple[np.ndarray, ...]:
    """The parts of a released record's hisgrad that the moving head cannot
    change, as (head_in, a, c, *masks): the head's input (C x width) from
    the record's post-tap pass (tail_forward of its z), a = 2*std**2/(k*C)
    (C x 1), c = 2*std*(mean - y)/(k*C) (C x k) and each post-tap block's
    ReLU mask as float64 0/1. The record's loss gradient in normalized
    units is y_norm * a + c, y_norm (C x k) the head's output on head_in."""
    tail = tail_forward(model, rec.z)
    k, C = rec.y.shape
    scale = 2.0 * rec.stats.std / (k * C)
    return (tail.head_in, (scale * rec.stats.std)[:, None],
            scale[:, None] * (rec.stats.mean[:, None] - rec.y.T),
            *((h > 0.0).astype(np.float64) for h in tail.ins))


def compute_hisgrad(model: ForecastModel, head_in: np.ndarray, a: np.ndarray,
                    c: np.ndarray, *masks: np.ndarray) -> np.ndarray:
    """Average over b released records of the per-sample gradient of the
    squared forecast error with respect to the record's feature, evaluated
    under the model's current parameters.

    It takes the records' hisgrad_terms stacked on a leading axis of b,
    each C-contiguous, and runs them as one (b*C)-row pass: the model is
    channel independent. Only the head runs, on the stored head inputs;
    in place, its bias, a and c make the loss gradient in normalized units.
    No ReLU sits between the last block and the head, so one GEMM through
    H @ W_last and that block's mask reach its input, and each earlier
    post-tap block takes a GEMM and its mask (with the tap at the last
    block, one GEMM through H).
    """
    b, C, _ = head_in.shape
    rows, H = b * C, model.head.weight
    # a C-ordered copy of H.T: BLAS runs this narrow product faster from it
    g = head_in.reshape(rows, -1) @ np.ascontiguousarray(H.T)
    g += model.head.bias
    g *= a.reshape(rows, 1)
    g += c.reshape(rows, model.k)
    if not masks:
        g = g @ H
    else:
        g = g @ (H @ model.blocks[-1].weight)
        g *= masks[-1].reshape(rows, -1)
        start = model.tap_index + 1
        for j in range(len(masks) - 2, -1, -1):
            g = g @ model.blocks[start + j].weight
            g *= masks[j].reshape(rows, -1)
    return np.add.reduce(g.reshape(b, C, model.d), axis=0) / b


def _record_share(model: ForecastModel, rec: StepRecord, b: int,
                  cfg: EngineConfig) -> Dict[str, np.ndarray]:
    """The record's term of the window-mean loss gradient, keyed by the names
    of the parameters that can move ({} with both rates 0). Only the record's
    own tapes and g_y are read, so it is the same in every window."""
    g_y = rec.g_y / b                                       # window-mean loss
    grads: Dict[str, np.ndarray] = {}
    if cfg.lr_head > 0:
        grads["head.weight"], grads["head.bias"] = \
            grad_wrt_last_layer(model, rec.head_tape, g_y)
    if cfg.lr_adapter > 0:
        g_z = grad_wrt_feature(model, rec.head_tape, g_y)
        grads.update(adapter_backward_tape(rec.adapter_tape, g_z))
    return grads


def _window_update(model: ForecastModel, a: AdapterNet,
                   acc: Dict[str, np.ndarray], cfg: EngineConfig) -> None:
    """Step the head (if lr_head > 0) and the adapter (if lr_adapter > 0) down
    the window gradient acc, keyed by parameter name. The steps allocate new
    parameters, so acc may later move in place."""
    head = ("head.weight", "head.bias")
    if cfg.lr_head > 0:
        descend(model, {n: acc[n] for n in head}, cfg.lr_head)
    if cfg.lr_adapter > 0:
        sgd_step(a, {n: g for n, g in acc.items() if n not in head}, cfg.lr_adapter)


def _deployed_copy(model: ForecastModel, cfg: EngineConfig) -> ForecastModel:
    """Validate the run settings and return the copy a method may update."""
    cfg.validated()
    if cfg.horizon != model.k:
        raise ValueError(f"cfg.horizon {cfg.horizon} != model horizon {model.k}")
    if cfg.lookback != model.L:
        raise ValueError(f"cfg.lookback {cfg.lookback} != model lookback {model.L}")
    return model.clone()


def _deploy(method: str, model: ForecastModel, steps: Iterable[Step],
            correct: Optional[Callable[[np.ndarray, StepRecord], np.ndarray]],
            learn: Optional[Callable[[StepRecord], None]],
            adapter_net: Optional[AdapterNet] = None,
            keep_preds: bool = True) -> MetricsTrace:
    """The one stream loop, owner of the prediction, the k-step delay and the
    score: at step s it runs the head on z + correct(z, rec) (on z if correct
    is None) for a record rec of the step's normalized window, z and stats,
    writes head_tape to rec and scores yhat once. Unless learn is None, it
    then adds the target y and the loss gradient g_y, holds rec back with the
    k records before it and, from step k on, calls learn with the record of
    step s-k alone.

    steps is _front_end's, or pretraining's list of them, drawn once before
    the first epoch (valid while blocks 0..tap do not move). Pretraining
    reads no prediction, so its trace keeps none (keep_preds=False)."""
    pending: Deque[Tuple[int, StepRecord]] = deque()
    reads: List[Tuple[int, int]] = []
    origins: List[int] = []
    mses: List[float] = []
    preds: List[np.ndarray] = []
    for s, (origin, y, x_norm, z, stats) in enumerate(steps):
        rec = StepRecord(x_norm=x_norm, z=z, stats=stats)   # views, no copy
        z_in = z if correct is None else z + correct(z, rec)
        yhat, rec.head_tape = head_forward_with_tape(model, z_in, stats)
        loss, g_y = mse_with_grad(yhat, y)
        origins.append(origin)
        mses.append(loss)
        if keep_preds:
            preds.append(yhat)
        if learn is not None:
            rec.y, rec.g_y = y, g_y                 # released at step s + k
            pending.append((s, rec))
            if len(pending) > model.k:
                t, released = pending.popleft()
                reads.append((s, t))
                learn(released)
    return MetricsTrace(method, origins, np.asarray(mses), preds,
                        final_model=model, final_adapter=adapter_net,
                        cache_reads=reads)


def run_ori(model: ForecastModel, stream: Sequence[Sample],
            cfg: EngineConfig) -> MetricsTrace:
    """Frozen baseline: predict every sample, adapt nothing."""
    model = _deployed_copy(model, cfg)
    return _deploy("ori", model, _front_end(model, stream), None, None)


def run_adaptz(model: ForecastModel, adapter_net: AdapterNet,
               stream: Sequence[Sample], cfg: EngineConfig) -> MetricsTrace:
    """Adapter-corrected deployment with the delayed window update; the
    adapter's own use_feat/use_grad flags choose its input paths. A run
    with zero rates still learns, since the next hisgrad needs the window.
    With the grad path off, hisgrad feeds nothing and stays zero."""
    model = _deployed_copy(model, cfg)
    return _adaptz(model, adapter_net, _front_end(model, stream), len(stream), cfg)


def _adaptz(model: ForecastModel, adapter_net: AdapterNet, steps: Iterable[Step],
            n_steps: int, cfg: EngineConfig,
            hisgrads: Optional[List[np.ndarray]] = None) -> MetricsTrace:
    """The adaptz loop over n_steps steps of an already deployed model.

    Released record i goes to slot i % b: its hisgrad_terms (made once on
    release; the post-tap blocks never move here) to the hisgrad ring
    (slots j and j + b of 2b) and its share of the window gradient to a
    b-slot list. Once b records are in, the window sum is taken left to
    right, name by name, whenever the count n of released
    records is a multiple of b; in between it gains the newest share and
    loses the one whose slot that share took. Float addition is not
    associative, so the periodic exact sum bounds the drift. A window over
    the n_steps - k releases never fills: it gets no slot, ring or share.

    hisgrads is pretrain_adapter's, whose head is frozen: an empty list is
    filled with each hisgrad the run computes, and a filled one is read in
    their place, with no ring. Its runs keep no predictions.
    """
    replayed = hisgrads if hisgrads else None
    a = adapter_net.clone()
    b = cfg.hist_batch
    fills = b <= n_steps - model.k
    hisgrad: Optional[np.ndarray] = None
    n = 0                                       # records released so far
    rings: List[np.ndarray] = []
    shares: List[Dict[str, np.ndarray]] = [{}] * b if fills else []
    acc: Dict[str, np.ndarray] = {}

    def correct(z, rec):
        nonlocal hisgrad
        if hisgrad is None:
            hisgrad = np.zeros_like(z)
        delta, rec.adapter_tape = adapter_forward_with_tape(a, z, hisgrad)
        return delta

    def learn(rec):
        nonlocal hisgrad, acc, n, rings
        if not fills:                           # no slot, ring or share to make
            return
        j = n % b                               # this record's slot
        n += 1
        if replayed is not None:
            if n >= b:
                hisgrad = replayed[n - b]
        elif a.use_grad:
            # each term written twice, at j and j + b, so the last b records
            # are one contiguous slice, oldest first, as compute_hisgrad takes them
            terms = hisgrad_terms(model, rec)
            if not rings:
                rings = [np.empty((2 * b,) + t.shape) for t in terms]
            for ring, value in zip(rings, terms):
                ring[j] = ring[j + b] = value
            if n >= b:
                # next step's hisgrad, evaluated before this step's update
                hisgrad = compute_hisgrad(model, *(ring[n % b:n % b + b]
                                                   for ring in rings))
                if hisgrads is not None:
                    hisgrads.append(hisgrad)
        left, shares[j] = shares[j], _record_share(model, rec, b, cfg)
        if n < b:
            return
        if n % b == 0:                          # slots 0..b-1 hold the window in order
            acc = {name: g.copy() for name, g in shares[0].items()}
            for share in shares[1:]:
                for name, g in share.items():
                    acc[name] += g
        else:
            for name, g in shares[j].items():
                acc[name] += g
                acc[name] -= left[name]
        _window_update(model, a, acc, cfg)

    return _deploy("adaptz", model, steps, correct, learn, adapter_net=a,
                   keep_preds=hisgrads is None)


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

    def learn(rec):
        nonlocal delta
        g_delta = grad_wrt_feature(model, rec.head_tape, rec.g_y)
        delta = delta - cfg.lr_fogd * g_delta

    return _deploy("fogd", model, _front_end(model, stream), correct,
                   learn if cfg.lr_fogd > 0 else None)


def run_ogd(model: ForecastModel, stream: Sequence[Sample],
            cfg: EngineConfig) -> MetricsTrace:
    """Delayed single-sample gradient step on all model parameters."""
    model = _deployed_copy(model, cfg)

    def learn(rec):
        # the full pass from the record's window, already normalized
        yh_d, ftape = predict_with_tape(model, rec.x_norm, rec.stats)
        _, g_y = mse_with_grad(yh_d, rec.y)     # re-scored under current params
        apply_param_step(model, param_grads(model, ftape, g_y), cfg.lr_ogd)

    return _deploy("ogd", model, _front_end(model, stream), None,
                   learn if cfg.lr_ogd > 0 else None)


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

    Runs the adaptz loop over the split once per epoch from an empty window,
    carrying the adapter across epochs; the head stays frozen (it only
    moves during deployment). The replay is chronological and fully
    deterministic, so `seed` is accepted for interface parity only.

    Only the adapter moves here, so the call deploys one copy of the model
    and draws val's steps from it once, before the first epoch, and the
    first epoch's hisgrad sequence holds for every epoch: the later epochs
    replay it, byte for byte what they would compute. All three belong to
    this call alone.
    """
    if epochs < 0:
        raise ValueError("epochs must be >= 0")
    a = adapter_net.clone()
    if epochs == 0 or not len(val_samples):
        return a
    cfg = EngineConfig(method="adaptz", horizon=model.k, lookback=model.L,
                       hist_batch=hist_batch, lr_adapter=lr, lr_head=0.0,
                       seed=seed)
    model = _deployed_copy(model, cfg)
    # z and stats only: a step's x_norm would pin its whole chunk
    steps = [(o, y, None, z, st) for o, y, _, z, st in _front_end(model, val_samples)]
    hisgrads: List[np.ndarray] = []
    for _ in range(epochs):
        a = _adaptz(model, a, steps, len(steps), cfg, hisgrads).final_adapter
    return a

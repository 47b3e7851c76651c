"""Channel-independent MLP forecaster split into an encoder and a head.

The model normalizes each lookback window per channel, runs the channels
as batch rows through affine blocks `blocks.<i>` (ReLU strictly between
blocks), maps the last block to the horizon with a linear `head`, and
denormalizes. Those named layers are its parameters, and descend steps
them. One block output is exposed as the feature z; corrections are added
there and head_forward_with_tape resumes the rest of the pass.

A WindowSplit is a split of the stream as the stride-1 windows of one
array: a Sequence[Sample] that holds the array, not a Sample per window.
_windows is the one place a split and any other sequence of samples part
ways: it checks them against the model and draws any run of their windows
as a lookback stack and a target stack, from views of a split's array or
stacked from the samples. The stream loop and offline_train read their
windows through it.

normalize takes one window or a stack of them (a split's windows are its
lookbacks()), byte-equal either way; a stack with more than one channel
is reduced side by side, and its windows come back as strided views.
Normalization is a step of its own: encode and predict_with_tape take a
window normalize already made (the stream loop normalizes a chunk of
windows at once), and predict is the one entry that takes a raw window.

encode runs blocks 0..tap only, in the block loop every pass shares, and
returns z: the post-tap blocks and the head run once per prediction, in
head_forward_with_tape. Every pass that reaches the head, full from
block 0 (predict_with_tape) or resumed from the tap
(head_forward_with_tape), records one Tape of block inputs, outputs and
weight snapshots, so gradients are taken under the parameters that made
the prediction. One backward pass serves feature and parameter gradients.

tail_forward runs the post-tap blocks on z without the head and keeps a
Tail of their inputs and the head's input: while those blocks do not
move, it fixes every part of z's pass that the head does not touch (the
stream loop's hisgrad keeps those parts and reruns only the head).

offline_train draws each batch through _windows when it needs it, with
one normalize of the batch's stack: the fit holds O(batch*L*C) of drawn
data, never a copy of the train split.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np
from numpy.lib.stride_tricks import as_strided

from .diffmath import (AffineLayer, Layered, _as_matrix, affine_apply, descend,
                       mse_with_grad)

STD_EPS = 1e-5


@dataclass
class NormStats:
    """Per-channel lookback statistics; std is already clamped at STD_EPS."""

    mean: np.ndarray  # (C,), or (n, C) for a stack of windows
    std: np.ndarray   # (C,), or (n, C) for a stack of windows


@dataclass
class Sample:
    """One forecasting instance: lookback x (L x C), target y (k x C)."""

    x: np.ndarray
    y: np.ndarray
    origin: int


def _standardize(x: np.ndarray) -> Tuple[np.ndarray, NormStats]:
    """The reductions of normalize, over x's lookback axis (axis -2)."""
    L = x.shape[-2]
    if L < 2:
        raise ValueError(f"lookback needs at least 2 rows, got {L}")
    mean = np.add.reduce(x, axis=-2) / L
    dev = x - mean[..., None, :]
    std = np.maximum(np.sqrt(np.add.reduce(dev * dev, axis=-2) / L), STD_EPS)
    return dev / std[..., None, :], NormStats(mean=mean, std=std)


def _side_by_side(x: np.ndarray, n: int, C: int) -> Tuple[np.ndarray, NormStats]:
    """Standardize n windows of C channels laid side by side as one
    L x (n*C) array, row l holding row l of every window in turn; return
    them as an (n x L x C) view with (n x C) stats."""
    x_norm, stats = _standardize(x)
    return (x_norm.reshape(x.shape[0], n, C).transpose(1, 0, 2),
            NormStats(mean=stats.mean.reshape(n, C), std=stats.std.reshape(n, C)))


def normalize(x) -> Tuple[np.ndarray, NormStats]:
    """Per-channel standardization over the lookback window.

    Population std (ddof=0), clamped at STD_EPS so constant channels
    normalize to zeros instead of failing. It takes one sum, one centring
    and one square-sum: the reductions NumPy's mean and std run, in their
    order, so the output is byte-equal to x.mean(axis=0) and x.std(axis=0)
    without their Python-level wrappers.

    x is one window (L x C) or a stack of windows (n x L x C), such as a
    split's lookbacks(), reduced over its lookback axis by the same calls,
    so each window's rows and (n x C) stats are byte-equal to its own call.
    NumPy sums in memory order, so x is read in C order: its bytes then
    depend on its values only.

    A stack with C > 1 is reduced side by side, as one L x (n*C) matrix:
    NumPy's inner loops run over n*C columns, not C, and still add row by
    row down the lookback, as a window's own call does. The matrix is
    x.transpose(1, 0, 2).reshape(L, n*C), a view where NumPy can make one
    (a split's strided lookbacks give one), kept only when it reads as a
    C-ordered matrix (unit column stride, larger row stride) and copied to
    C order otherwise. It comes back as an (n x L x C) view, each window
    with row stride n*C. A one-channel window's call sums its column
    pairwise, so a C = 1 stack is reduced stacked.
    """
    x = np.asarray(x, dtype=np.float64)
    if x.ndim not in (2, 3):
        raise ValueError(f"x must be 2-D (L x C) or 3-D (n x L x C), got shape {x.shape}")
    if x.ndim == 3 and x.shape[2] > 1:
        n, L, C = x.shape
        side = x.transpose(1, 0, 2).reshape(L, n * C)
        if not side.strides[1] == side.itemsize < side.strides[0]:
            side = np.ascontiguousarray(side)
        return _side_by_side(side, n, C)
    return _standardize(np.ascontiguousarray(x))


class WindowSplit(Sequence[Sample]):
    """The stride-1 windows of one C-contiguous (T x C) float64 array whose
    origins run from start to stop - 1, as a sequence of Samples: window o
    has lookback x = values[o-L+1 : o+1] and target y = values[o+1 : o+1+k].

    It holds the array and four integers, not an object per window.
    Indexing builds a Sample of views into the array, and a slice of step 1
    is another split over the same array (any other step gives a list).
    Every window is L x C and k x C and the origins rise by one, so a
    split is checked once (_windows), not window by window, and its
    lookbacks and targets are strided views of the array, copied only by a
    gather (offline_train) or a reduction (normalize).
    """

    def __init__(self, values: np.ndarray, L: int, k: int, start: int,
                 stop: int) -> None:
        if not (isinstance(values, np.ndarray) and values.ndim == 2
                and values.dtype == np.float64 and values.flags.c_contiguous):
            raise ValueError("values must be a C-contiguous 2-D float64 array")
        if not (1 <= L <= start + 1 and k >= 1
                and start <= stop <= values.shape[0] - k):
            raise ValueError(f"origins [{start}, {stop}) with L={L} and k={k} "
                             f"do not fit {values.shape[0]} rows")
        self.values, self.L, self.k = values, L, k
        self.start, self.stop = start, stop

    def __len__(self) -> int:
        return self.stop - self.start

    def _sample(self, o: int) -> Sample:
        return Sample(x=self.values[o - self.L + 1:o + 1],
                      y=self.values[o + 1:o + 1 + self.k], origin=o)

    def __getitem__(self, i):
        if isinstance(i, slice):
            lo, hi, step = i.indices(len(self))
            if step != 1:
                return [self._sample(self.start + j) for j in range(lo, hi, step)]
            return WindowSplit(self.values, self.L, self.k, self.start + lo,
                               self.start + max(lo, hi))
        j = operator.index(i)
        if j < 0:
            j += len(self)
        if not 0 <= j < len(self):
            raise IndexError(f"window {i} outside a split of {len(self)}")
        return self._sample(self.start + j)

    def __iter__(self) -> Iterator[Sample]:
        return map(self._sample, range(self.start, self.stop))

    def _strided(self, first: int, rows: int) -> np.ndarray:
        """The len(self) windows of `rows` rows whose first starts at row
        `first`, as a read-only (n x rows x C) view."""
        s0, s1 = self.values.strides
        return as_strided(self.values[first:], (len(self), rows, self.values.shape[1]),
                          (s0, s0, s1), writeable=False)

    def lookbacks(self) -> np.ndarray:
        """Every window's x, as an (n x L x C) view of the array."""
        return self._strided(self.start - self.L + 1, self.L)

    def targets(self) -> np.ndarray:
        """Every window's y, as an (n x k x C) view of the array."""
        return self._strided(self.start + 1, self.k)


def _check_shape(model: ForecastModel, sample: Sample,
                 channels: Optional[int]) -> int:
    """Check that a sample fits the model, x (L x C) and y (k x C), with the
    channel count C of the samples before it (any C if channels is None);
    return its C. Each error names the sample's origin."""
    x, y = sample.x, sample.y
    where = f"sample at origin {sample.origin}"
    if x.ndim != 2 or y.ndim != 2:
        raise ValueError(f"{where}: x and y must be 2-D")
    if x.shape[0] != model.L:
        raise ValueError(f"{where}: x rows {x.shape[0]} != lookback {model.L}")
    if channels is not None and x.shape[1] != channels:
        raise ValueError(f"{where}: channel count changed: {x.shape[1]} != {channels}")
    if y.shape != (model.k, x.shape[1]):
        raise ValueError(f"{where}: y shape {y.shape} != ({model.k}, {x.shape[1]})")
    return x.shape[1]


def _windows(model: ForecastModel, samples: Sequence[Sample], finite: bool = False
             ) -> Tuple[Callable[..., Tuple[np.ndarray, np.ndarray]], Sequence[int]]:
    """Check samples against the model and return (draw, origins): draw(index)
    gives the lookbacks and targets of the windows a slice or an index
    array picks, stacked as (m x L x C) and (m x k x C), and origins each
    window's origin.

    A WindowSplit's windows share one shape, so its first window's check
    holds for every window, and draw reads its lookbacks() and targets():
    a view for a slice, one gather for an index array. Any other sequence
    is checked sample by sample (_check_shape) and draw stacks only the
    samples it picks, so a draw holds O(m*L*C) either way.

    With finite, a non-finite value in any window's x or y is refused and
    the first such window's origin named: one isfinite over the rows a
    split's windows cover, or one per sample.
    """
    if isinstance(samples, WindowSplit):
        if len(samples):
            _check_shape(model, samples[0], None)
            if finite:
                lo = samples.start - samples.L + 1
                ok = np.isfinite(samples.values[lo:samples.stop + samples.k]).all(axis=1)
                if not ok.all():
                    # row lo + j lies in the windows of origins lo + j - k onwards
                    origin = max(samples.start, lo + int(np.argmin(ok)) - samples.k)
                    raise ValueError(f"sample at origin {origin}: non-finite x or y")
        xs, ys = samples.lookbacks(), samples.targets()
        return (lambda index: (xs[index], ys[index])), range(samples.start, samples.stop)
    C = None
    for s in samples:
        C = _check_shape(model, s, C)
        if finite and not (np.isfinite(s.x).all() and np.isfinite(s.y).all()):
            raise ValueError(f"sample at origin {s.origin}: non-finite x or y")

    def draw(index) -> Tuple[np.ndarray, np.ndarray]:
        rows = range(len(samples))[index] if isinstance(index, slice) else index
        picked = [samples[j] for j in rows]
        return np.stack([s.x for s in picked]), np.stack([s.y for s in picked])
    return draw, [s.origin for s in samples]


def denormalize(y_norm, stats: NormStats) -> np.ndarray:
    """Undo normalize on a (k x C) prediction: y_norm * std + mean."""
    return np.asarray(y_norm, dtype=np.float64) * stats.std + stats.mean


@dataclass
class Tape:
    """Record of one forward pass from block `start` to the prediction.

    predict_with_tape records a pass from block 0; head_forward_with_tape
    records one resumed at the block after the tap. Every tape ends at the
    head. Weights are snapshots taken at forward time. stats is None for
    offline_train's stacked batches.
    """

    start: int                       # first block the pass ran
    ins: List[np.ndarray]            # input fed to each block it ran
    pre: List[np.ndarray]            # pre-activation output of each block it ran
    block_weights: List[np.ndarray]  # snapshots of those blocks' weights
    head_in: np.ndarray
    head_weight: np.ndarray
    y_norm: np.ndarray               # head output before denormalization
    stats: Optional[NormStats]


@dataclass
class Tail:
    """The pass of a feature z through the blocks past the tap, without the
    head: each post-tap block's input and the head's input, as _forward
    records them from tap + 1 (no ins when the tap is the last block). It
    stays valid while those blocks do not move.
    """

    ins: List[np.ndarray]
    head_in: np.ndarray


class ForecastModel(Layered):
    """Encoder blocks + linear head; channels share all weights."""

    def __init__(self, blocks: Sequence[AffineLayer], head: AffineLayer,
                 L: int, k: int, tap_index: Optional[int] = None) -> None:
        blocks = list(blocks)
        if not blocks:
            raise ValueError("need at least one encoder block")
        if blocks[0].in_dim != L:
            raise ValueError(f"first block expects in_dim {L}, got {blocks[0].in_dim}")
        for i in range(1, len(blocks)):
            if blocks[i].in_dim != blocks[i - 1].out_dim:
                raise ValueError(f"block {i} in_dim != block {i - 1} out_dim")
        if head.in_dim != blocks[-1].out_dim:
            raise ValueError("head in_dim != last block out_dim")
        if head.out_dim != k:
            raise ValueError(f"head out_dim {head.out_dim} != horizon {k}")
        if tap_index is None:
            # default tap: second-last block (the only block if there is one)
            tap_index = max(len(blocks) - 2, 0)
        if not 0 <= tap_index < len(blocks):
            raise ValueError(f"tap_index {tap_index} outside [0, {len(blocks)})")
        self.blocks = blocks
        self.head = head
        self.L = L
        self.k = k
        self.tap_index = tap_index

    @property
    def d(self) -> int:
        """Feature width at the tap."""
        return self.blocks[self.tap_index].out_dim

    def clone(self) -> "ForecastModel":
        return ForecastModel([b.clone() for b in self.blocks], self.head.clone(),
                             self.L, self.k, self.tap_index)

    def named_layers(self) -> List[Tuple[str, AffineLayer]]:
        blocks = [(f"blocks.{i}", blk) for i, blk in enumerate(self.blocks)]
        return blocks + [("head", self.head)]


def build_model(L: int, k: int, d: int = 64, n_blocks: int = 3,
                tap_index: Optional[int] = None, seed: int = 0) -> ForecastModel:
    """Seeded model factory: blocks L -> d -> d ... with a d -> k head."""
    rng = np.random.default_rng(seed)
    dims = [L] + [d] * n_blocks
    blocks = [AffineLayer.seeded(dims[i + 1], dims[i], rng) for i in range(n_blocks)]
    head = AffineLayer.seeded(k, d, rng, scale=np.sqrt(1.0 / d))
    return ForecastModel(blocks, head, L, k, tap_index)


def _blocks_from(model: ForecastModel, rows: np.ndarray, start: int,
                 stop: Optional[int] = None
                 ) -> Tuple[List[np.ndarray], List[np.ndarray], np.ndarray]:
    """Run rows through blocks start..stop-1 (to the last block if stop is
    None); ReLU between blocks only, so every block but block 0 gets a
    rectified input. Returns the input and the pre-activation output of each
    block it ran, and the last output (the head's input if it ran them all)."""
    ins: List[np.ndarray] = []
    pre: List[np.ndarray] = []
    h = rows
    for i in range(start, len(model.blocks) if stop is None else stop):
        blk = model.blocks[i]
        if i > 0:
            h = np.maximum(h, 0.0)
        ins.append(h)
        h = affine_apply(blk.weight, blk.bias, h)
        pre.append(h)
    return ins, pre, h


def _forward(model: ForecastModel, rows: np.ndarray, start: int,
             stats: Optional[NormStats]) -> Tape:
    """Run rows through blocks start.. and the head."""
    ins, pre, h = _blocks_from(model, rows, start)
    y_norm = affine_apply(model.head.weight, model.head.bias, h)
    return Tape(start=start, ins=ins, pre=pre,
                block_weights=[b.weight for b in model.blocks[start:]],
                head_in=h, head_weight=model.head.weight, y_norm=y_norm,
                stats=stats)


def _window_rows(model: ForecastModel, x_norm) -> np.ndarray:
    """One normalized lookback window, checked, as (C x L) channel rows."""
    x_norm = _as_matrix(x_norm, "x_norm")
    if x_norm.shape[0] != model.L:
        raise ValueError(
            f"x_norm has {x_norm.shape[0]} rows, model expects L={model.L}")
    return x_norm.T


def encode(model: ForecastModel, x_norm) -> np.ndarray:
    """Feature z (C x d) of one normalized lookback window.

    Runs blocks 0..tap and nothing past them, so it records no tape: the
    rest of the pass is head_forward_with_tape's. It runs them through the
    full pass's block loop, so z is a full tape's pre[tap].
    """
    return _blocks_from(model, _window_rows(model, x_norm), 0, model.tap_index + 1)[2]


def predict_with_tape(model: ForecastModel, x_norm, stats: NormStats
                      ) -> Tuple[np.ndarray, Tape]:
    """Prediction plus the full tape of the same pass (for parameter grads)
    from one normalized window and the stats normalize gave it."""
    tape = _forward(model, _window_rows(model, x_norm), 0, stats)
    return denormalize(tape.y_norm.T, stats), tape


def _feature_rows(model: ForecastModel, z, name: str) -> np.ndarray:
    z = _as_matrix(z, name)
    if z.shape[1] != model.d:
        raise ValueError(f"{name} width {z.shape[1]} != feature width {model.d}")
    return z


def head_forward_with_tape(model: ForecastModel, z_adj, stats: NormStats
                           ) -> Tuple[np.ndarray, Tape]:
    """Resume the forward pass from the tap with a (possibly adjusted) z."""
    tape = _forward(model, _feature_rows(model, z_adj, "z_adj"),
                    model.tap_index + 1, stats)
    return denormalize(tape.y_norm.T, stats), tape


def tail_forward(model: ForecastModel, z) -> Tail:
    """The post-tap pass of a feature z (C x d), head left out; its ops are
    those of head_forward_with_tape on the same rows."""
    ins, _, head_in = _blocks_from(model, _feature_rows(model, z, "z"),
                                   model.tap_index + 1)
    return Tail(ins=ins, head_in=head_in)


def predict(model: ForecastModel, x) -> np.ndarray:
    """Full model output (k x C) of one raw lookback window: normalize, then
    encode, then head_forward_with_tape's prediction."""
    x_norm, stats = normalize(_as_matrix(x, "x"))
    return head_forward_with_tape(model, encode(model, x_norm), stats)[0]


def _grad_into_norm(grad_yhat: np.ndarray, stats: NormStats) -> np.ndarray:
    """dL/d(y_norm rows): undo denormalization and transpose to (C x k)."""
    return (np.asarray(grad_yhat, dtype=np.float64) * stats.std).T


def _backward(tape: Tape, g_norm: np.ndarray, stop: int,
              grads: Optional[Dict[str, np.ndarray]] = None) -> np.ndarray:
    """Backpropagate dL/d(y_norm rows) through the head and the taped blocks
    down to block `stop`; returns the gradient at block stop-1's output.
    With a grads dict, also fills in the head's and those blocks' gradients."""
    if stop < tape.start:
        raise ValueError(f"tape starts at block {tape.start}, cannot reach block {stop}")
    if grads is not None:
        grads["head.weight"] = g_norm.T @ tape.head_in
        grads["head.bias"] = g_norm.sum(axis=0)
    g = g_norm @ tape.head_weight
    for j in range(len(tape.ins) - 1, stop - tape.start - 1, -1):
        i = tape.start + j
        if grads is not None:
            grads[f"blocks.{i}.weight"] = g.T @ tape.ins[j]
            grads[f"blocks.{i}.bias"] = g.sum(axis=0)
        if i > 0:  # block 0's input is data, not a ReLU output
            g = (g @ tape.block_weights[j]) * (tape.ins[j] > 0.0)
    return g


def grad_wrt_feature(model: ForecastModel, tape, grad_yhat) -> np.ndarray:
    """Backpropagate dL/dy_hat to the tap feature of the pass on the tape."""
    if tape is None:
        raise ValueError("grad_wrt_feature needs a forward tape")
    return _backward(tape, _grad_into_norm(grad_yhat, tape.stats),
                     model.tap_index + 1)


def grad_wrt_last_layer(model: ForecastModel, tape, grad_yhat
                        ) -> Tuple[np.ndarray, np.ndarray]:
    """Head weight/bias gradients for the pass recorded on the tape."""
    if tape is None:
        raise ValueError("grad_wrt_last_layer needs a forward tape")
    g_norm = _grad_into_norm(grad_yhat, tape.stats)
    return g_norm.T @ tape.head_in, g_norm.sum(axis=0)


def param_grads(model: ForecastModel, tape: Tape, grad_yhat) -> Dict[str, np.ndarray]:
    """Gradients of every model parameter for a pass recorded by
    predict_with_tape."""
    if tape is None:
        raise ValueError("param_grads needs a forward tape")
    grads: Dict[str, np.ndarray] = {}
    _backward(tape, _grad_into_norm(grad_yhat, tape.stats), 0, grads)
    return grads


def apply_param_step(model: ForecastModel, grads: Dict[str, np.ndarray], lr: float) -> None:
    """One SGD step on the named parameters (see descend)."""
    descend(model, grads, lr)


def offline_train(model: ForecastModel, train_samples: Sequence[Sample],
                  epochs: int, lr: float = 0.001, batch: int = 32,
                  seed: int = 0) -> ForecastModel:
    """Mini-batch SGD on MSE over the shuffled train split; returns a clone.

    The samples are checked first, a window holding a non-finite value
    refused by its origin, and each batch is drawn when it is needed, by
    _windows, as the stream loop reads its windows; a batch is
    normalized by one normalize of its stack, which gives each window the
    bytes of its own call. Nothing drawn outlives its batch, so the fit
    holds O(batch*L*C) on top of the samples. A batch of m samples with C
    channels runs as one C-contiguous (m*C) x L matrix of channel rows per
    layer call.
    """
    if not train_samples:
        raise ValueError("train_samples is empty")
    if epochs < 0 or batch < 1:
        raise ValueError(f"epochs must be >= 0 and batch >= 1, got {epochs}, {batch}")
    if not 0 <= lr < np.inf:
        raise ValueError(f"lr must be >= 0 and finite, got {lr!r}")
    draw, _ = _windows(model, train_samples, finite=True)
    out = model.clone()
    if epochs == 0:
        return out
    rng = np.random.default_rng(seed)
    n = len(train_samples)
    for _ in range(epochs):
        order = rng.permutation(n)
        for lo in range(0, n, batch):
            x, y = draw(order[lo:lo + batch])
            x_norm, stats = normalize(x)
            # the vstack of each window's C x L rows, window by window
            rows = np.ascontiguousarray(x_norm.transpose(0, 2, 1)).reshape(-1, model.L)
            # and of each target's C x k rows
            targ = np.asarray(y, dtype=np.float64).transpose(0, 2, 1).reshape(-1, model.k)
            std_col = stats.std.reshape(-1, 1)
            mean_col = stats.mean.reshape(-1, 1)
            tape = _forward(out, rows, 0, None)
            _, g_y = mse_with_grad(tape.y_norm * std_col + mean_col, targ)
            g_norm = g_y * std_col
            grads: Dict[str, np.ndarray] = {}
            _backward(tape, g_norm, 0, grads)
            apply_param_step(out, grads, lr)
    return out

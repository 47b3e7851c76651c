"""Channel-independent MLP forecaster split into an encoder and a head.

The model normalizes each lookback window per channel, runs the channels
as batch rows through affine blocks `blocks.<i>` (ReLU strictly between
blocks), maps the last block to the horizon with a linear `head`, and
denormalizes. Those named layers are its parameters, and descend steps
them. One block output is exposed as the feature z; corrections are added
there and head_forward_with_tape resumes the rest of the pass.

normalize takes one window or a stack of them, byte-equal either way; a
stack with more than one channel is reduced side by side, and its
windows come back as strided views. encode and predict_with_tape take a
window normalize already made when they are handed its stats, as the
stream loop does.

encode runs blocks 0..tap only, in the block loop every pass shares, and
returns z with its stats: the post-tap blocks and the head run once per
prediction, in head_forward_with_tape. Every pass that reaches the head,
full from block 0 (predict_with_tape) or resumed from the tap
(head_forward_with_tape), records one Tape of block inputs, outputs and
weight snapshots, so gradients are taken under the parameters that made
the prediction. One backward pass serves feature and parameter gradients.

tail_forward runs the post-tap blocks on z without the head and keeps a
Tail of their inputs. While those blocks do not move, the head alone
resumes from it (head_forward_from_tail), and grad_wrt_feature_from_tail
backpropagates to z under the current head, folding the head into the
last block.

offline_train checks its samples as the stream loop does (_check_shape)
and normalizes each batch when it draws it, with one normalize of the
batch's stack: the fit holds O(batch*L*C) of normalized data, never a
normalized copy of the train split.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

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


def normalize(x) -> Tuple[np.ndarray, NormStats]:
    """Per-channel standardization over the lookback window.

    Population std (ddof=0), clamped at STD_EPS so constant channels
    normalize to zeros instead of failing. It takes one sum, one centring
    and one square-sum: the reductions NumPy's mean and std run, in their
    order, so the output is byte-equal to x.mean(axis=0) and x.std(axis=0)
    without their Python-level wrappers.

    x is one window (L x C) or a stack of windows (n x L x C), reduced over
    its lookback axis by the same calls, so each window's rows and (n x C)
    stats are byte-equal to its own call. NumPy sums in memory order, so x
    is made C-contiguous first (a no-op if it is): its bytes then depend on
    its values only.

    A stack with C > 1 is reduced side by side, as one C-contiguous
    L x (n*C) copy: NumPy's inner loops run over n*C columns, not C, and
    still add row by row down the lookback, as a window's own call does.
    It comes back as an (n x L x C) view, each window with row stride n*C.
    A one-channel window's call sums its column pairwise, so a C = 1 stack
    is reduced stacked.
    """
    x = np.ascontiguousarray(x, dtype=np.float64)
    if x.ndim not in (2, 3):
        raise ValueError(f"x must be 2-D (L x C) or 3-D (n x L x C), got shape {x.shape}")
    L, C = x.shape[-2:]
    if L < 2:
        raise ValueError(f"lookback needs at least 2 rows, got {L}")
    side = x.ndim == 3 and C > 1
    if side:
        n = x.shape[0]
        x = np.ascontiguousarray(x.transpose(1, 0, 2)).reshape(L, n * C)
    mean = np.add.reduce(x, axis=-2) / L
    dev = x - mean[..., None, :]
    std = np.maximum(np.sqrt(np.add.reduce(dev * dev, axis=-2) / L), STD_EPS)
    x_norm = dev / std[..., None, :]
    if side:
        return (x_norm.reshape(L, n, C).transpose(1, 0, 2),
                NormStats(mean=mean.reshape(n, C), std=std.reshape(n, C)))
    return x_norm, NormStats(mean=mean, std=std)


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
    stays valid while those blocks do not move. compute_hisgrad takes a
    window's tails stacked on a leading record axis.
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


def _normalized_rows(model: ForecastModel, x, stats: Optional[NormStats]
                     ) -> Tuple[np.ndarray, NormStats]:
    """One lookback window, checked and normalized (unless stats says it
    already is), as (C x L) channel rows."""
    x = _as_matrix(x, "x")
    if x.shape[0] != model.L:
        raise ValueError(f"x has {x.shape[0]} rows, model expects L={model.L}")
    if stats is None:
        x, stats = normalize(x)
    return x.T, stats


def encode(model: ForecastModel, x, stats: Optional[NormStats] = None
           ) -> Tuple[np.ndarray, NormStats]:
    """Feature z (C x d) of one lookback window, plus its stats.

    Runs blocks 0..tap and nothing past them, so it records no tape: the
    rest of the pass is head_forward_with_tape's. It runs them through the
    full pass's block loop, so z is a full tape's pre[tap]. With stats, x
    is the window normalize already made (the stream loop normalizes a
    chunk of windows at once) and encode does not normalize it again.
    """
    rows, stats = _normalized_rows(model, x, stats)
    return _blocks_from(model, rows, 0, model.tap_index + 1)[2], stats


def predict_with_tape(model: ForecastModel, x, stats: Optional[NormStats] = None
                      ) -> Tuple[np.ndarray, Tape]:
    """Prediction plus the full tape of the same pass (for parameter grads);
    stats says that x is already normalized, as in encode."""
    rows, stats = _normalized_rows(model, x, stats)
    tape = _forward(model, rows, 0, stats)
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


def head_forward_from_tail(model: ForecastModel, tail: Tail,
                           stats: NormStats) -> np.ndarray:
    """Prediction (k x rows) of the head alone on a tail's head input."""
    y_norm = affine_apply(model.head.weight, model.head.bias, tail.head_in)
    return denormalize(y_norm.T, stats)


def predict(model: ForecastModel, x) -> np.ndarray:
    """Full model output: encode, then head_forward_with_tape's prediction."""
    z, stats = encode(model, x)
    return head_forward_with_tape(model, z, stats)[0]


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


def grad_wrt_feature_from_tail(model: ForecastModel, tail: Tail, stats: NormStats,
                              grad_yhat) -> np.ndarray:
    """Backpropagate dL/dy_hat (k x rows) of head_forward_from_tail to the
    tap feature, under the model's current head and post-tap blocks.

    No ReLU sits between the last block and the head, so the head folds
    into that block: H @ W_last (k x its input width) is formed once and the
    rows take one GEMM through both. Earlier post-tap blocks follow through
    their masks as _backward does; with the tap at the last block the
    gradient is g_norm @ H.
    """
    g_norm = _grad_into_norm(grad_yhat, stats)
    if not tail.ins:
        return g_norm @ model.head.weight
    start = model.tap_index + 1
    folded = model.head.weight @ model.blocks[-1].weight
    g = (g_norm @ folded) * (tail.ins[-1] > 0.0)
    for j in range(len(tail.ins) - 2, -1, -1):
        g = (g @ model.blocks[start + j].weight) * (tail.ins[j] > 0.0)
    return g


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

    Every sample is checked first, as the stream loop checks them (x is
    L x C and y is k x C, with one C across the split). Each batch is
    normalized when it is drawn, by one normalize of its stack, which
    gives each window the bytes of its own call; nothing normalized
    outlives its batch, so the fit holds O(batch*L*C) of normalized data
    on top of the split. A batch of m samples with C channels runs as one
    C-contiguous (m*C) x L matrix of channel rows per layer call.
    """
    if not train_samples:
        raise ValueError("train_samples is empty")
    if epochs < 0 or batch < 1:
        raise ValueError(f"epochs must be >= 0 and batch >= 1, got {epochs}, {batch}")
    if not 0 <= lr < np.inf:
        raise ValueError(f"lr must be >= 0 and finite, got {lr!r}")
    C = None
    for s in train_samples:
        C = _check_shape(model, s, C)
    out = model.clone()
    if epochs == 0:
        return out
    y_rows = [np.asarray(s.y, dtype=np.float64).T for s in train_samples]
    rng = np.random.default_rng(seed)
    n = len(train_samples)
    for _ in range(epochs):
        order = rng.permutation(n)
        for lo in range(0, n, batch):
            idx = order[lo:lo + batch]
            x_norm, stats = normalize(np.stack([train_samples[j].x for j in idx]))
            # the vstack of each window's C x L rows, window by window
            rows = np.ascontiguousarray(x_norm.transpose(0, 2, 1)).reshape(-1, model.L)
            targ = np.vstack([y_rows[j] for j in idx])
            std_col = stats.std.reshape(-1, 1)
            mean_col = stats.mean.reshape(-1, 1)
            tape = _forward(out, rows, 0, None)
            _, g_y = mse_with_grad(tape.y_norm * std_col + mean_col, targ)
            g_norm = g_y * std_col
            grads: Dict[str, np.ndarray] = {}
            _backward(tape, g_norm, 0, grads)
            apply_param_step(out, grads, lr)
    return out

"""Dense primitives shared by the forecaster, adapter and online engine:
the affine layer (a parameter holder plus its cache-free map), the MSE loss
with its gradient, and the parameter protocol of both networks. A Layered
network's parameters are its named layers' `<layer>.weight|bias`, and
descend is the one step that moves them. Backward passes live on the tapes,
which snapshot the weights at forward time. Row-major float64 throughout.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

import numpy as np


def _as_matrix(a, name: str) -> np.ndarray:
    m = np.asarray(a, dtype=np.float64)
    if m.ndim != 2:
        raise ValueError(f"{name} must be 2-D, got shape {m.shape}")
    return m


class AffineLayer:
    """Parameters of y = x @ weight.T + bias; weight is (out x in), bias
    is (out,). The layer holds no forward state: tapes record what a
    backward pass needs."""

    __slots__ = ("weight", "bias")

    def __init__(self, weight, bias) -> None:
        weight = _as_matrix(weight, "weight")
        bias = np.asarray(bias, dtype=np.float64).reshape(-1)
        if bias.shape[0] != weight.shape[0]:
            raise ValueError(
                f"bias length {bias.shape[0]} != weight rows {weight.shape[0]}"
            )
        self.weight = weight
        self.bias = bias

    @classmethod
    def seeded(cls, out_dim: int, in_dim: int, rng: np.random.Generator,
               scale: Optional[float] = None) -> "AffineLayer":
        """He-scaled random weights (suits the ReLU stacks built on top)."""
        if in_dim < 1 or out_dim < 1:
            raise ValueError(f"layer widths must be >= 1, got in_dim {in_dim}, "
                             f"out_dim {out_dim}")
        if scale is None:
            scale = np.sqrt(2.0 / in_dim)
        weight = scale * rng.standard_normal((out_dim, in_dim))
        return cls(weight, np.zeros(out_dim))

    def clone(self) -> "AffineLayer":
        return AffineLayer(self.weight.copy(), self.bias.copy())

    @property
    def out_dim(self) -> int:
        return self.weight.shape[0]

    @property
    def in_dim(self) -> int:
        return self.weight.shape[1]


class Layered:
    """A network whose parameters are its named affine layers."""

    def named_layers(self) -> List[Tuple[str, AffineLayer]]:
        raise NotImplementedError

    def named_params(self) -> List[Tuple[str, np.ndarray]]:
        """Each layer's weight then bias, in layer order."""
        return [p for name, layer in self.named_layers()
                for p in ((f"{name}.weight", layer.weight), (f"{name}.bias", layer.bias))]


def descend(net: Layered, grads: Dict[str, np.ndarray], lr: float) -> None:
    """theta <- theta - lr * g into new arrays (tapes keep the old) for each
    parameter named in grads; the others stay. A name the net lacks or a
    rate outside [0, inf) raises ValueError before anything moves.

    Each step builds one array: g * -lr, then theta added in place, which is
    theta - lr * g byte for byte; at rate 1.0 it is theta - g, since 1.0 * g
    is g."""
    if not 0 <= lr < np.inf:
        raise ValueError(f"lr must be >= 0 and finite, got {lr!r}")
    steps = [(layer, field, g)
             for lname, layer in net.named_layers() for field in ("weight", "bias")
             if (g := grads.get(f"{lname}.{field}")) is not None]
    if len(steps) != len(grads):
        unknown = sorted(set(grads) - {name for name, _ in net.named_params()})
        raise ValueError(f"no parameter named {', '.join(unknown)}")
    if lr == 0.0:
        return
    for layer, field, g in steps:
        p, g = getattr(layer, field), np.asarray(g, float)
        if lr == 1.0:
            step = p - g
        else:
            step = g * -lr
            step += p
        setattr(layer, field, step)


def affine_apply(weight: np.ndarray, bias: np.ndarray, inp: np.ndarray) -> np.ndarray:
    """The affine map itself: inp @ weight.T + bias."""
    return inp @ weight.T + bias


def mse_with_grad(pred, target) -> Tuple[float, np.ndarray]:
    """Mean squared error over all batch*dim entries, with dL/dpred."""
    pred = _as_matrix(pred, "pred")
    target = _as_matrix(target, "target")
    if pred.shape != target.shape:
        raise ValueError(f"shape mismatch: pred {pred.shape}, target {target.shape}")
    if pred.shape[0] < 1 or pred.size == 0:
        raise ValueError("empty batch")
    diff = pred - target
    loss = float(np.add.reduce(diff * diff, axis=None) / diff.size)  # np.mean, unwrapped
    grad = 2.0 * diff / diff.size
    return loss, grad

"""Dual-path correction adapter: (z, hisgrad) -> delta in feature space.

Two input projections, path_feat on the current feature and path_grad on
the batched historical feature-gradient (a much smaller scale), are summed,
then pass ReLU, `hidden`, ReLU and `out`, which starts at zero so a fresh
adapter is an exact no-op. These four named layers, in order, are its parameters.

build_adapter makes the hidden width d; AdapterNet's constructor takes
other widths. Ablation flags skip a path structurally: a disabled path is
never evaluated, so the output is bit-exact independent of that input,
and the backward pass names no gradient for it, so no step moves its
arrays. At least one path stays on.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

import numpy as np

from .diffmath import AffineLayer, Layered, _as_matrix, affine_apply, descend


_LAYERS = ("path_feat", "path_grad", "hidden", "out")    # constructor order


class AdapterNet(Layered):
    def __init__(self, path_feat: AffineLayer, path_grad: AffineLayer,
                 hidden: AffineLayer, out: AffineLayer,
                 use_feat: bool = True, use_grad: bool = True) -> None:
        h = hidden.out_dim
        if path_feat.out_dim != h or path_grad.out_dim != h or hidden.in_dim != h:
            raise ValueError("path/hidden widths disagree")
        if out.in_dim != h:
            raise ValueError("out layer in_dim != hidden width")
        if path_feat.in_dim != path_grad.in_dim or out.out_dim != path_feat.in_dim:
            raise ValueError("adapter must map d -> d")
        if not (use_feat or use_grad):
            raise ValueError("adapter needs at least one input path: "
                             "use_feat and use_grad are both off")
        self.path_feat = path_feat
        self.path_grad = path_grad
        self.hidden = hidden
        self.out = out
        self.use_feat = bool(use_feat)
        self.use_grad = bool(use_grad)

    @property
    def d(self) -> int:
        return self.path_feat.in_dim

    @property
    def h(self) -> int:
        return self.hidden.out_dim

    def clone(self) -> "AdapterNet":
        return AdapterNet(*(layer.clone() for _, layer in self.named_layers()),
                          self.use_feat, self.use_grad)

    def named_layers(self) -> List[Tuple[str, AffineLayer]]:
        return list(zip(_LAYERS, (self.path_feat, self.path_grad, self.hidden, self.out)))


def build_adapter(d: int, use_feat: bool = True, use_grad: bool = True,
                  seed: int = 0) -> AdapterNet:
    """Seeded adapter of hidden width d; out layer starts at zero."""
    rng = np.random.default_rng(seed)
    path_feat = AffineLayer.seeded(d, d, rng)
    path_grad = AffineLayer.seeded(d, d, rng)
    hidden = AffineLayer.seeded(d, d, rng)
    out = AffineLayer(np.zeros((d, d)), np.zeros(d))
    return AdapterNet(path_feat, path_grad, hidden, out, use_feat, use_grad)


@dataclass
class AdapterTape:
    """Forward record with weight snapshots, for delayed backward passes."""

    z: np.ndarray
    hisgrad: np.ndarray
    s: np.ndarray         # summed path outputs, pre-ReLU
    r1: np.ndarray        # relu(s), hidden input
    hh: np.ndarray        # hidden pre-activation
    r2: np.ndarray        # relu(hh), out input
    w_hidden: np.ndarray
    w_out: np.ndarray
    use_feat: bool
    use_grad: bool


def adapter_forward_with_tape(a: AdapterNet, z, hisgrad
                              ) -> Tuple[np.ndarray, AdapterTape]:
    z = _as_matrix(z, "z")
    hisgrad = _as_matrix(hisgrad, "hisgrad")
    if z.shape[1] != a.d or hisgrad.shape[1] != a.d:
        raise ValueError(
            f"expected width {a.d}, got z {z.shape}, hisgrad {hisgrad.shape}")
    if z.shape[0] != hisgrad.shape[0]:
        raise ValueError(f"row mismatch: z {z.shape}, hisgrad {hisgrad.shape}")
    if a.use_feat and a.use_grad:
        s = (affine_apply(a.path_feat.weight, a.path_feat.bias, z)
             + affine_apply(a.path_grad.weight, a.path_grad.bias, hisgrad))
    elif a.use_feat:
        s = affine_apply(a.path_feat.weight, a.path_feat.bias, z)
    else:
        s = affine_apply(a.path_grad.weight, a.path_grad.bias, hisgrad)
    r1 = np.maximum(s, 0.0)
    hh = affine_apply(a.hidden.weight, a.hidden.bias, r1)
    r2 = np.maximum(hh, 0.0)
    delta = affine_apply(a.out.weight, a.out.bias, r2)
    tape = AdapterTape(z=z, hisgrad=hisgrad, s=s, r1=r1, hh=hh, r2=r2,
                       w_hidden=a.hidden.weight, w_out=a.out.weight,
                       use_feat=a.use_feat, use_grad=a.use_grad)
    return delta, tape


def adapter_backward_tape(tape: AdapterTape, grad_delta) -> Dict[str, np.ndarray]:
    """Parameter gradients for the pass on `tape`, none for a path it did not
    run (chain rule only; weights are snapshots, so the live adapter may move)."""
    grad_delta = _as_matrix(grad_delta, "grad_delta")
    if grad_delta.shape != tape.z.shape:
        raise ValueError(f"grad_delta shape {grad_delta.shape} != {tape.z.shape}")
    grads: Dict[str, np.ndarray] = {}
    grads["out.weight"] = grad_delta.T @ tape.r2
    grads["out.bias"] = grad_delta.sum(axis=0)
    g = (grad_delta @ tape.w_out) * (tape.hh > 0.0)
    grads["hidden.weight"] = g.T @ tape.r1
    grads["hidden.bias"] = g.sum(axis=0)
    g = (g @ tape.w_hidden) * (tape.s > 0.0)
    for name, on, inp in (("path_feat", tape.use_feat, tape.z),
                          ("path_grad", tape.use_grad, tape.hisgrad)):
        if on:
            grads[f"{name}.weight"] = g.T @ inp
            grads[f"{name}.bias"] = g.sum(axis=0)
    return grads


def sgd_step(a: AdapterNet, grads: Dict[str, np.ndarray], lr: float) -> AdapterNet:
    """One SGD step on the named adapter parameters (see descend); returns a."""
    descend(a, grads, lr)
    return a

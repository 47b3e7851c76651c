import numpy as np
import pytest
from hypothesis import strategies as st

from driftcast import (AdapterNet, DriftSpec, Sample, SplitSpec, build_model,
                       chrono_split, gen_concept_drift, offline_train)
from driftcast.diffmath import AffineLayer

FD_H = 1e-6


def fd_grad(fn, arr, h=FD_H):
    """Central-difference gradient of scalar fn with respect to arr."""
    arr = np.asarray(arr, dtype=np.float64)
    out = np.zeros_like(arr)
    it = np.nditer(arr, flags=["multi_index"])
    while not it.finished:
        idx = it.multi_index
        save = arr[idx]
        arr[idx] = save + h
        up = fn()
        arr[idx] = save - h
        down = fn()
        arr[idx] = save
        out[idx] = (up - down) / (2.0 * h)
        it.iternext()
    return out


def adapter_of_width(d, h, use_feat=True, use_grad=True, seed=0):
    """A d -> d adapter with hidden width h, seeded as build_adapter seeds
    its width-d one; a zero out layer makes it a no-op."""
    rng = np.random.default_rng(seed)
    layers = [AffineLayer.seeded(h, d, rng), AffineLayer.seeded(h, d, rng),
              AffineLayer.seeded(h, h, rng),
              AffineLayer(np.zeros((d, h)), np.zeros(d))]
    return AdapterNet(*layers, use_feat, use_grad)


def rel_err(analytic, numeric, floor=1e-4):
    denom = np.maximum(np.maximum(np.abs(analytic), np.abs(numeric)), floor)
    return float(np.max(np.abs(analytic - numeric) / denom))


KINK_MARGIN = 1e-3  # finite differences lie where a ReLU input sits near 0


def relu_margin(arrays):
    """Smallest |value| over the arrays: how near a ReLU input sits to its kink."""
    vals = [float(np.min(np.abs(a))) for a in arrays if a.size]
    return min(vals) if vals else np.inf


def same_bytes(a, b):
    """a and b hold the same dtype, shape and bytes (NaNs included)."""
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


@st.composite
def reduction_inputs(draw, rows=st.integers(2, 200), cols=st.integers(1, 20)):
    """A (rows x cols) float64 array to pin a reduction on, byte for byte:
    normal noise at a scale of 1, 1e3 or below STD_EPS, on an offset of 0 or
    near +-1e8, with maybe a constant column and maybe one infinite cell."""
    n, c = draw(rows), draw(cols)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    offset = draw(st.sampled_from([0.0, 1e8, -1e8 + 0.25]))
    x = rng.standard_normal((n, c)) * draw(st.sampled_from([1.0, 1e3, 1e-7])) + offset
    if draw(st.booleans()):
        x[:, draw(st.integers(0, c - 1))] = offset
    if draw(st.booleans()):
        x[draw(st.integers(0, n - 1)), draw(st.integers(0, c - 1))] = \
            draw(st.sampled_from([np.inf, -np.inf]))
    return x


def ar_series(T, C, rng, coeff=0.8):
    x = np.zeros((T, C))
    for t in range(1, T):
        x[t] = coeff * x[t - 1] + rng.standard_normal(C)
    return x


def make_stream(n, L, k, C, seed, coeff=0.8):
    """n consecutive test-style samples over a fresh AR(1) series."""
    rng = np.random.default_rng(seed)
    series = ar_series(n + L + k, C, rng, coeff)
    out = []
    for i in range(n):
        o = L - 1 + i
        out.append(Sample(x=series[o - L + 1:o + 1],
                          y=series[o + 1:o + 1 + k], origin=o))
    return out


@pytest.fixture(scope="session")
def tiny_model():
    return build_model(L=8, k=2, d=4, n_blocks=3, seed=7)


@pytest.fixture(scope="session")
def small_trained():
    """A small model fitted on a short drift stream, with its splits."""
    spec = DriftSpec(kind="concept_drift", length=900, channels=2,
                     change_points=[700], magnitudes=[1.0], seed=5)
    frame = gen_concept_drift(spec)
    train, val, test = chrono_split(frame, SplitSpec(), L=24, k=4)
    model = build_model(L=24, k=4, d=12, n_blocks=3, seed=5)
    trained = offline_train(model, train, epochs=3, lr=1e-3, batch=16, seed=6)
    return trained, train, val, test

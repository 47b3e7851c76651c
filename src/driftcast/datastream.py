"""Series ingestion, chronological splitting, and synthetic drift generators.

The generators exist so that drift-adaptation claims can be tested without
any benchmark corpus: a covariate-shift stream (AR(1) with mean jumps) and
a concept-drift stream (lagged linear map from driver channels to a target
channel whose coefficients change at given points in time).
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field
from typing import List, Tuple

import numpy as np

from .forecaster import Sample

DRIFT_KINDS = ("mean_shift", "concept_drift")
MAX_CELLS = 10**7       # length * channels of a generated stream, at most

# fixed base coefficients of the lagged driver->target map; change points
# multiply the lag-1 coefficient of driver 0 by -magnitude
CONCEPT_A1 = 1.0
CONCEPT_A2 = 0.5


@dataclass
class SeriesFrame:
    """Raw multivariate series: values (T x C), one name per channel."""

    values: np.ndarray
    columns: List[str]

    def __post_init__(self) -> None:
        self.values = np.asarray(self.values, dtype=np.float64)
        if self.values.ndim != 2:
            raise ValueError(f"series values must be 2-D, got {self.values.shape}")
        if len(self.columns) != self.values.shape[1]:
            raise ValueError("column count != value columns")

    @property
    def T(self) -> int:
        return self.values.shape[0]

    @property
    def C(self) -> int:
        return self.values.shape[1]


@dataclass
class SplitSpec:
    train_frac: float = 0.60
    val_frac: float = 0.10
    test_frac: float = 0.30

    def __post_init__(self) -> None:
        for f in (self.train_frac, self.val_frac, self.test_frac):
            if not 0 <= f:                  # false for nan too
                raise ValueError(f"split fraction {f!r} must be >= 0")
        if abs(self.train_frac + self.val_frac + self.test_frac - 1.0) > 1e-9:
            raise ValueError("split fractions must sum to 1")


@dataclass
class DriftSpec:
    kind: str = "concept_drift"
    change_points: List[int] = field(default_factory=list)
    magnitudes: List[float] = field(default_factory=list)
    ar_coeff: float = 0.8
    noise_std: float = 0.1
    channels: int = 2
    length: int = 6000
    seed: int = 7

    def __post_init__(self) -> None:
        if self.kind not in DRIFT_KINDS:
            raise ValueError(f"kind {self.kind!r} not in {DRIFT_KINDS}")
        if not -1.0 < self.ar_coeff < 1.0:
            raise ValueError("ar_coeff must lie in (-1, 1)")
        if not 0 <= self.noise_std < np.inf:
            raise ValueError("noise_std must be >= 0 and finite")
        if self.channels < 1:
            raise ValueError(f"channels must be >= 1, got {self.channels}")
        if self.kind == "concept_drift" and self.channels < 2:
            raise ValueError("concept_drift needs >= 2 channels (driver + target)")
        if self.length < 1:
            raise ValueError("length must be >= 1")
        if self.length * self.channels > MAX_CELLS:
            raise ValueError(f"length {self.length} x channels {self.channels} "
                             f"is over the {MAX_CELLS} cells a generated stream "
                             f"may hold")
        if self.seed < 0:
            raise ValueError(f"seed {self.seed} must be >= 0")
        if len(self.change_points) != len(self.magnitudes):
            raise ValueError("change_points and magnitudes lengths differ")
        for mag in self.magnitudes:
            if not np.isfinite(mag):
                raise ValueError(f"magnitude {mag!r} is not finite")
        prev = -1
        for cp in self.change_points:
            if not 0 <= cp < self.length:
                raise ValueError(f"change point {cp} outside [0, {self.length})")
            if cp <= prev:
                raise ValueError("change_points must be strictly increasing")
            prev = cp


def load_csv(path: str) -> SeriesFrame:
    """Header row; first column is a timestamp/index and is dropped; the
    remaining columns must parse as finite reals (nan and inf are rejected
    with their row and column). No reordering, no imputation."""
    rows: List[List[str]] = []
    with open(path, "rb") as fh:
        # one line at a time, so a decode error stops at its row; bytes split
        # at \n, \r and \r\n only, the breaks text mode with newline="" makes
        lines = (part.decode("utf-8") for line in fh for part in line.splitlines(True))
        try:
            rows.extend(csv.reader(lines))
        except (UnicodeDecodeError, csv.Error) as exc:  # csv: a NUL before Python 3.11
            raise ValueError(f"{path}: row {len(rows) + 1}: {exc}") from None
    if not rows:
        raise ValueError(f"{path}: empty file")
    header = rows[0]
    if len(header) < 2:
        raise ValueError(f"{path}: need a timestamp column plus data columns")
    data_rows = rows[1:]
    if not data_rows:
        raise ValueError(f"{path}: no data rows (header only)")
    ncol = len(header)
    values = np.empty((len(data_rows), ncol - 1), dtype=np.float64)
    for r, row in enumerate(data_rows):
        if len(row) != ncol:
            raise ValueError(
                f"{path}: ragged row {r + 2}: {len(row)} cells, expected {ncol}")
        for c in range(1, ncol):
            try:
                values[r, c - 1] = float(row[c])
            except ValueError:
                raise ValueError(
                    f"{path}: unparsable cell at row {r + 2}, "
                    f"column {header[c]!r}: {row[c]!r}") from None
    bad = np.argwhere(~np.isfinite(values))
    if len(bad):
        r, c = bad[0]
        raise ValueError(
            f"{path}: non-finite cell at row {r + 2}, "
            f"column {header[c + 1]!r}: {data_rows[r][c + 1]!r}")
    return SeriesFrame(values, header[1:])


def write_csv(frame: SeriesFrame, path: str) -> None:
    """Inverse of load_csv; repr-precision floats, index as timestamp. A
    frame load_csv could not read back raises ValueError before the file is
    opened: no rows or columns, a column name that is not a string, or a
    non-finite cell (named by its row and column, as load_csv would)."""
    if frame.T == 0 or frame.C == 0:
        raise ValueError(f"{path}: a frame of shape {frame.values.shape} has "
                         "no rows or no columns to write")
    for name in frame.columns:
        if not isinstance(name, str):
            raise ValueError(f"{path}: column name {name!r} is not a string")
    bad = np.argwhere(~np.isfinite(frame.values))
    if len(bad):
        r, c = bad[0]
        raise ValueError(f"{path}: non-finite cell at row {r + 2}, column "
                         f"{frame.columns[c]!r}: {float(frame.values[r, c])!r}")
    # csv quotes a name only if it holds a comma, a quote or a character of
    # the line terminator, so a bare \r would split the header on reading
    quoting = (csv.QUOTE_ALL if any("\r" in name for name in frame.columns)
               else csv.QUOTE_MINIMAL)
    with open(path, "w", newline="", encoding="utf-8") as fh:
        head = csv.writer(fh, lineterminator="\n", quoting=quoting)
        head.writerow(["timestamp"] + list(frame.columns))
        out = csv.writer(fh, lineterminator="\n")
        for t in range(frame.T):
            out.writerow([str(t)] + [repr(float(v)) for v in frame.values[t]])


def min_series_length(L: int, k: int) -> int:
    """Fewest rows chrono_split accepts for lookback L and horizon k."""
    return L + k + 10


def chrono_split(frame: SeriesFrame, spec: SplitSpec, L: int, k: int
                 ) -> Tuple[List[Sample], List[Sample], List[Sample]]:
    """Dense stride-1 sliding-window samples split chronologically.

    Region boundaries sit at floor(train*T) and floor((train+val)*T).
    A fitting sample (train or val) is dropped if its target rows would
    cross into a later region; lookbacks may borrow earlier rows. Test
    samples run to the end of the series in strict origin order.
    """
    T = frame.T
    min_len = min_series_length(L, k)
    if T < min_len:
        raise ValueError(f"series length {T} < required minimum {min_len} (L+k+10)")
    b1 = int(np.floor(spec.train_frac * T))
    b2 = int(np.floor((spec.train_frac + spec.val_frac) * T))

    def build(lo: int, hi: int) -> List[Sample]:
        out = []
        for o in range(lo, hi + 1):
            if o - L + 1 < 0:
                continue
            out.append(Sample(x=frame.values[o - L + 1:o + 1],
                              y=frame.values[o + 1:o + 1 + k], origin=o))
        return out

    train = build(L - 1, b1 - 1 - k)
    val = build(b1, b2 - 1 - k)
    test = build(b2, T - 1 - k)
    return train, val, test


def gen_mean_shift(spec: DriftSpec) -> SeriesFrame:
    """AR(1) around a piecewise-constant mean that jumps at change points.

    x_t = mu_t + ar_coeff * (x_{t-1} - mu_{t-1}) + noise_std * eta_t, with
    the same mean path in every channel and independent channel noise.
    """
    if spec.kind != "mean_shift":
        raise ValueError(f"spec.kind is {spec.kind!r}, expected 'mean_shift'")
    T, C = spec.length, spec.channels
    rng = np.random.default_rng(spec.seed)
    mu = np.zeros(T)
    for cp, mag in zip(spec.change_points, spec.magnitudes):
        mu[cp:] += mag
    eta = rng.standard_normal((T, C))
    x = np.empty((T, C))
    x[0] = mu[0] + spec.noise_std * eta[0]
    for t in range(1, T):
        x[t] = mu[t] + spec.ar_coeff * (x[t - 1] - mu[t - 1]) + spec.noise_std * eta[t]
    return SeriesFrame(x, [f"ch{c}" for c in range(C)])


def concept_coefficients(spec: DriftSpec, t: int) -> Tuple[np.ndarray, np.ndarray]:
    """Lag-1 and lag-2 coefficient vectors over the drivers at time t.

    Base values (CONCEPT_A1, CONCEPT_A2) for every driver; each change
    point at or before t multiplies driver 0's lag-1 coefficient by
    -magnitude, so magnitude 1.0 is a pure sign flip.
    """
    n_drivers = spec.channels - 1
    a1 = np.full(n_drivers, CONCEPT_A1)
    a2 = np.full(n_drivers, CONCEPT_A2)
    for cp, mag in zip(spec.change_points, spec.magnitudes):
        if t >= cp:
            a1[0] *= -mag
    return a1, a2


def gen_concept_drift(spec: DriftSpec) -> SeriesFrame:
    """Driver channels are AR(1); the last channel is a lagged linear map of
    the drivers whose coefficients change at the change points:

        y_t = sum_c a1_c * x_c[t-1] + a2_c * x_c[t-2] + noise_std * eps_t

    The drivers are autocorrelated, so flipping a lag-1 coefficient flips
    the cross term in the target's autocovariance: the drift is visible in
    the target channel's own history, not just jointly.
    """
    if spec.kind != "concept_drift":
        raise ValueError(f"spec.kind is {spec.kind!r}, expected 'concept_drift'")
    T, C = spec.length, spec.channels
    n_drivers = C - 1
    rng = np.random.default_rng(spec.seed)
    innov = rng.standard_normal((T, n_drivers))
    eps = rng.standard_normal(T)
    drivers = np.empty((T, n_drivers))
    drivers[0] = innov[0]
    for t in range(1, T):
        drivers[t] = spec.ar_coeff * drivers[t - 1] + innov[t]
    target = np.empty(T)
    for t in range(T):
        if t < 2:
            target[t] = spec.noise_std * eps[t]
            continue
        a1, a2 = concept_coefficients(spec, t)
        target[t] = (a1 @ drivers[t - 1] + a2 @ drivers[t - 2]
                     + spec.noise_std * eps[t])
    values = np.column_stack([drivers, target])
    cols = [f"driver{c}" for c in range(n_drivers)] + ["target"]
    return SeriesFrame(values, cols)

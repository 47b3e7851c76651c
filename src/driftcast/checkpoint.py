"""Textual checkpoint format shared by model and adapter serialization.

Layout (UTF-8 text, stable across versions):

    # driftcast-checkpoint v1
    meta <key> <value>
    ...
    param <name> <rows> <cols>
    <row of space-separated floats, repr precision>
    ...

Floats are written with Python repr (shortest round-trip form), so a
save/load cycle reproduces every array bit-exactly. A damaged file (a
param block cut short, a row of the wrong length or with a value that is
not a finite number, a param or meta key the loader needs but the file
lacks, a layer bias whose length disagrees with its weight, a meta count
that is not an integer or a meta flag that is not 0 or 1) raises
ValueError naming the path and the param or meta key; a
malformed param or meta line, or a param or meta key given twice, raises
one naming the path and the line number (and the key, if repeated).
"""

from __future__ import annotations

from typing import Dict, List, Tuple

import numpy as np

from .diffmath import AffineLayer

MAGIC = "# driftcast-checkpoint v1"


class _Entries(dict):
    """The params or the meta keys read from one file; a lookup of an entry
    the file lacks raises ValueError naming the file and the entry."""

    def __init__(self, path: str, kind: str) -> None:
        super().__init__()
        self.path, self.kind = path, kind

    def __missing__(self, name: str):
        raise ValueError(f"{self.path}: no {self.kind} {name!r}")

    def add(self, name: str, value, lineno: int) -> None:
        if name in self:
            raise ValueError(f"{self.path}: line {lineno}: {self.kind} {name!r} repeated")
        self[name] = value

    def layer(self, name: str) -> AffineLayer:
        """The affine layer saved as params `<name>.weight` and `<name>.bias`;
        a bias whose length disagrees with the weight raises ValueError
        naming the path and the bias param."""
        weight, bias = self[f"{name}.weight"], self[f"{name}.bias"]
        try:
            return AffineLayer(weight, bias)
        except ValueError as exc:
            raise ValueError(f"{self.path}: param '{name}.bias': {exc}") from None

    def integer(self, key: str, flag: bool = False) -> int:
        """The meta value of key as an int; a flag must be 0 or 1."""
        raw = self[key]
        if raw in ("0", "1") or not flag and raw.removeprefix("-").isdecimal():
            return int(raw)
        raise ValueError(f"{self.path}: meta key {key!r} is {raw!r}, not "
                         + ("0 or 1" if flag else "an integer"))


def write_blocks(path: str, meta: Dict[str, str],
                 params: List[Tuple[str, np.ndarray]]) -> None:
    lines = [MAGIC]
    for key in meta:
        lines.append(f"meta {key} {meta[key]}")
    for name, arr in params:
        a = np.atleast_2d(np.asarray(arr, dtype=np.float64))
        lines.append(f"param {name} {a.shape[0]} {a.shape[1]}")
        for row in a:
            lines.append(" ".join(repr(float(v)) for v in row))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def read_blocks(path: str) -> Tuple[_Entries, _Entries]:
    with open(path, "r", encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    if not lines or lines[0] != MAGIC:
        raise ValueError(f"{path}: not a driftcast checkpoint")
    meta = _Entries(path, "meta key")
    params = _Entries(path, "param")
    i = 1
    while i < len(lines):
        line = lines[i]
        if not line.strip():
            i += 1
            continue
        if line.startswith("meta "):
            parts = line.split(" ", 2)
            if len(parts) < 3:
                raise ValueError(f"{path}: line {i + 1}: meta line {line!r} has no value")
            meta.add(parts[1], parts[2], i + 1)
            i += 1
        elif line.startswith("param "):
            try:                        # a short line fails to unpack, also a ValueError
                _, name, rows, cols = line.split(" ")
                rows, cols = int(rows), int(cols)
                if rows < 0 or cols < 0:
                    raise ValueError
            except ValueError:
                raise ValueError(f"{path}: line {i + 1}: {line!r} is not "
                                 "'param <name> <rows> <cols>' with counts >= 0") from None
            block = lines[i + 1:i + 1 + rows]
            if len(block) < rows:
                raise ValueError(f"{path}: param {name!r} is cut short: "
                                 f"{len(block)} of {rows} rows")
            data = np.empty((rows, cols), dtype=np.float64)
            for r, row in enumerate(block):
                values = row.split()
                where = f"{path}: param {name!r} row {r}"
                if len(values) != cols:
                    raise ValueError(f"{where} holds {len(values)} values, not {cols}")
                try:
                    data[r] = [float(tok) for tok in values]
                except ValueError as exc:
                    raise ValueError(f"{where}: {exc}") from None
                if not np.isfinite(data[r]).all():
                    raise ValueError(f"{where} holds a non-finite value")
            params.add(name, data, i + 1)
            i += 1 + rows
        else:
            raise ValueError(f"{path}: unrecognized line {i + 1}: {line!r}")
    return meta, params

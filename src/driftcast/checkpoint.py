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
param block cut short, a row of the wrong length, a param the loader
needs but the file lacks) raises ValueError naming the path and the param.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

import numpy as np

MAGIC = "# driftcast-checkpoint v1"


def _fmt(v: float) -> str:
    return repr(float(v))


class _Params(dict):
    """The params read from one file; a lookup of a param the file lacks
    raises ValueError naming the file and the param."""

    def __init__(self, path: str) -> None:
        super().__init__()
        self.path = path

    def __missing__(self, name: str) -> np.ndarray:
        raise ValueError(f"{self.path}: no param {name!r}")


def write_blocks(path: str, meta: Dict[str, str],
                 params: List[Tuple[str, np.ndarray]]) -> None:
    lines = [MAGIC]
    for key in meta:
        lines.append(f"meta {key} {meta[key]}")
    for name, arr in params:
        a = np.atleast_2d(np.asarray(arr, dtype=np.float64))
        lines.append(f"param {name} {a.shape[0]} {a.shape[1]}")
        for row in a:
            lines.append(" ".join(_fmt(v) for v in row))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def read_blocks(path: str) -> Tuple[Dict[str, str], Dict[str, np.ndarray]]:
    with open(path, "r", encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    if not lines or lines[0] != MAGIC:
        raise ValueError(f"{path}: not a driftcast checkpoint")
    meta: Dict[str, str] = {}
    params = _Params(path)
    i = 1
    while i < len(lines):
        line = lines[i]
        if not line.strip():
            i += 1
            continue
        if line.startswith("meta "):
            _, key, value = line.split(" ", 2)
            meta[key] = value
            i += 1
        elif line.startswith("param "):
            _, name, rows, cols = line.split(" ")
            rows, cols = int(rows), int(cols)
            block = lines[i + 1:i + 1 + rows]
            if len(block) < rows:
                raise ValueError(f"{path}: param {name!r} is cut short: "
                                 f"{len(block)} of {rows} rows")
            data = np.empty((rows, cols), dtype=np.float64)
            for r, row in enumerate(block):
                values = row.split()
                if len(values) != cols:
                    raise ValueError(f"{path}: param {name!r} row {r} holds "
                                     f"{len(values)} values, not {cols}")
                data[r] = [float(tok) for tok in values]
            params[name] = data
            i += 1 + rows
        else:
            raise ValueError(f"{path}: unrecognized line {i + 1}: {line!r}")
    return meta, params

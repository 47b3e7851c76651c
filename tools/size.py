"""Print the size of each module under src/driftcast, two ways:

    python tools/size.py

For each module: its line count (as `wc -l` counts it) and its code lines,
the lines holding a token other than a comment, less the lines of
docstrings (the string that opens a module, class or function body). A
token spanning several lines, such as a triple-quoted string that is not
a docstring, holds each of them. Blank lines, comment-only lines and
docstrings count as lines but not as code. The last row is the total.

Stdlib only; not part of Tier-1 (tests/test_size.py pins the count).
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path
from typing import Iterable, List, Set, Tuple

ROOT = Path(__file__).resolve().parent.parent
NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
            tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def docstring_lines(tree: ast.AST) -> Set[int]:
    """The line numbers of every module, class and function docstring."""
    lines: Set[int] = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(source: str) -> int:
    """The lines of source holding a token other than a comment, less its
    docstring lines."""
    held: Set[int] = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in NOT_CODE:
            held.update(range(tok.start[0], tok.end[0] + 1))
    return len(held - docstring_lines(ast.parse(source)))


def sizes(paths: Iterable[Path]) -> List[Tuple[str, int, int]]:
    """(name, wc -l lines, code lines) of each .py file, largest code first."""
    rows = []
    for path in paths:
        data = path.read_bytes()
        rows.append((path.stem, data.count(b"\n"), code_lines(data.decode("utf-8"))))
    return sorted(rows, key=lambda row: (-row[2], row[0]))


def main() -> int:
    rows = sizes(sorted((ROOT / "src" / "driftcast").glob("*.py")))
    print(f"{'module':<12} {'lines':>6} {'code':>6}")
    for name, lines, code in rows:
        print(f"{name:<12} {lines:>6} {code:>6}")
    print(f"{'total':<12} {sum(r[1] for r in rows):>6} {sum(r[2] for r in rows):>6}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

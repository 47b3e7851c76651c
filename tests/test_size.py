"""tools/size.py counts code lines as the ROADMAP's size figures do: lines
holding a token other than a comment, less docstring lines."""

import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("size", ROOT / "tools" / "size.py")
size = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(size)

SNIPPET = '''"""Module docstring,
two lines."""

# a comment line

import os  # a trailing comment


def f(x,
      y):
    """One-line docstring."""
    text = """not a
docstring"""
    return (x +
            y)


class A:
    """Class
    docstring.
    """

    z = 1
'''


def test_code_lines_of_a_fixed_snippet():
    # import, def (2), text (2), return (2), class, z
    assert size.code_lines(SNIPPET) == 9


def test_sizes_reports_wc_lines_and_code_lines(tmp_path):
    (tmp_path / "snippet.py").write_text(SNIPPET, encoding="utf-8")
    (tmp_path / "tiny.py").write_text("x = 1\n\n# end\n", encoding="utf-8")
    assert size.sizes(sorted(tmp_path.glob("*.py"))) == [("snippet", 23, 9),
                                                          ("tiny", 3, 1)]

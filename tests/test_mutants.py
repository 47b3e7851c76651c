"""Every mutant of tools/mutants.py still matches its file exactly once, so
a change that moves a mutated line fails here, not at the next mutant run."""

import importlib.util
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("mutants", ROOT / "tools" / "mutants.py")
mutants = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(mutants)


@pytest.mark.parametrize("mutant", mutants.MUTANTS, ids=lambda m: m.name)
def test_mutant_matches_its_file_once(mutant):
    text = (ROOT / "src" / "driftcast" / mutant.path).read_text(encoding="utf-8")
    assert mutants.mutated(text, mutant) != text


def test_mutant_names_are_unique():
    names = [m.name for m in mutants.MUTANTS]
    assert len(set(names)) == len(names)

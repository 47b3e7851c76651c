"""The bench tracer wraps driftcast functions by (module, attribute) name and
skips a name that no longer resolves, so a renamed or removed function would
silently drop its per-layer metrics. This pins every name it wraps."""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parent.parent / "bench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


tracer = load_tracer()
TARGETS = tracer.SETUP_TARGETS + tracer.DEPLOY_TARGETS + tracer.SWEEP_TARGETS


@pytest.mark.parametrize("module, attr", TARGETS,
                         ids=[f"{m}.{a}" for m, a in TARGETS])
def test_traced_name_is_a_driftcast_callable(module, attr):
    mod = importlib.import_module(f"driftcast.{module}")
    assert callable(getattr(mod, attr, None)), f"driftcast.{module}.{attr}"

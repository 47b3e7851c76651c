"""Each demo under demos/ runs to exit 0 at a small size."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("script, args", [
    ("drift_recovery.py", ["--length", "600", "--flip-at", "520", "--horizon",
                           "4", "--lookback", "16", "--width", "8"]),
    ("make_streams.py", ["--length", "800", "--out-prefix", "{tmp}/s"]),
    ("regret_check.py", ["--seeds", "1"]),
    ("tap_sweep.py", ["--length", "400"]),
], ids=["drift_recovery", "make_streams", "regret_check", "tap_sweep"])
def test_demo_exits_zero(script, args, tmp_path):
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))}
    argv = [a.format(tmp=tmp_path) for a in args]
    done = subprocess.run([sys.executable, str(ROOT / "demos" / script)] + argv,
                          cwd=ROOT, env=env, capture_output=True, text=True,
                          timeout=120)
    assert done.returncode == 0, done.stderr

"""Harness smoke test: every workload at the tiny size, traced and untraced.

Run from the repository root:  python3 -m pytest -q bench/tests
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
ARGS = ["--seed", "3", "--seconds", "0", "--size", "tiny"]


def run_bench(workload, trace):
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload,
         "--trace", str(trace), *ARGS],
        cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("trace", [0, 1])
def test_every_metric_is_emitted_with_its_unit(workload, trace):
    result = run_bench(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    got = result["metrics"]
    assert {m["name"] for m in wanted} == set(got)
    for m in wanted:
        assert got[m["name"]]["unit"] == m["unit"], m["name"]
        assert isinstance(got[m["name"]]["value"], float), m["name"]


def test_per_layer_list_matches_the_tracer():
    sys.path.insert(0, str(BENCH))
    import tracer
    assert [(m["name"], m["unit"]) for m in SPEC["per_layer"]] == tracer.per_layer_units()


def test_wrong_reference_mse_counts_as_failed(tmp_path, monkeypatch, capsys):
    sys.path.insert(0, str(BENCH))
    import run
    refs = json.loads(run.REFERENCES.read_text())
    right = refs["drift-lab"]["tiny"]["3"]
    wrong = {"drift-lab": {"tiny": {"3": dict(right, fogd=right["fogd"] * (1 + 1e-9))}}}
    path = tmp_path / "refs.json"
    path.write_text(json.dumps(wrong))
    monkeypatch.setattr(run, "REFERENCES", path)
    assert run.main(["--workload", "drift-lab", "--trace", "0", *ARGS]) == 0
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert result["correct"] is False and result["failed"] >= 1
    record = json.loads((ROOT / ".bench_out" / "result-drift-lab-tiny-seed3-trace0.json")
                        .read_text())
    assert len(record["errors"]) == result["failed"]
    assert all(err.startswith("fogd: mse") for err in record["errors"])


def test_recorded_reference_is_met():
    result = run_bench("drift-lab", 0)
    assert result["correct"] is True and result["failed"] == 0

"""Run hand-written mutants of src/ against the Tier-1 suite.

    python tools/mutants.py                 # every mutant
    python tools/mutants.py NAME [NAME...]  # only these
    python tools/mutants.py --list          # names, one a line

Each mutant replaces one exact text in one file under src/driftcast/. The
text must occur exactly once, so a mutant whose line has changed fails
loudly, before anything runs, instead of testing nothing. For each mutant
the tree is copied to a temporary directory, the mutant is applied there
and Tier-1 runs with -x, less tests/test_mutants.py (it checks each text
against the unmutated source, so it would kill every mutant); the checkout
itself is never written. A mutant is killed when a test fails (the first
failing test is printed) and survives when the suite passes. The unmutated
copy runs first, so a suite that already fails stops the run instead of
killing every mutant.

Exit status: 0 if every mutant was killed, 1 if any survived or its run
ended without a verdict, 2 if a mutant does not match exactly once or the
unmutated suite fails.

A survivor is either a missing test or an equivalent mutant; say which.
Each mutant takes one Tier-1 run with -x, up to about 40 s on two cores.
This script is not part of Tier-1.
"""

from __future__ import annotations

import argparse
import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import List, NamedTuple, Optional, Tuple

ROOT = Path(__file__).resolve().parent.parent
TIER1 = ["-m", "pytest", "-q", "-x", "-p", "no:cacheprovider",
         "--continue-on-collection-errors", "--ignore=tests/test_mutants.py"]
TIMEOUT_S = 900
SKIP = shutil.ignore_patterns(".git", "__pycache__", ".pytest_cache", ".hypothesis",
                              ".bench_out", ".bench_build", "*.egg-info")


class Mutant(NamedTuple):
    name: str
    path: str       # relative to src/driftcast
    old: str
    new: str


MUTANTS = [
    Mutant("load_csv accepts inf", "datastream.py",
           "if non_finite is None and not math.isfinite(sum(cells)):",
           "if non_finite is None and math.isnan(sum(cells)):"),
    Mutant("load_csv raises a ragged row before reading on", "datastream.py",
           "                        fault = (f\"ragged row {rows}: {len(row)} cells, \"",
           "                        raise ValueError(f\"{path}: ragged row {rows}: \"\n"
           "                                         f\"{len(row)} cells, expected \"\n"
           "                                         f\"{len(header)}\")\n"
           "                        fault = (f\"ragged row {rows}: {len(row)} cells, \""),
    Mutant("load_csv reports a non-finite cell before a bad row", "datastream.py",
           "for error in (fault, non_finite):",
           "for error in (non_finite, fault):"),
    Mutant("load_csv keeps the last non-finite cell, not the first", "datastream.py",
           "if non_finite is None and not math.isfinite(sum(cells)):",
           "if not math.isfinite(sum(cells)):"),
    Mutant("generators let an overflowing series through", "datastream.py",
           "    if not finite.all():\n        raise ValueError(f\"{spec.kind} series",
           "    if False:\n        raise ValueError(f\"{spec.kind} series"),
    Mutant("mean_shift lets its overflow warn", "datastream.py",
           "@np.errstate(over=\"ignore\", invalid=\"ignore\")   # _generated names an "
           "overflow\ndef gen_mean_shift",
           "def gen_mean_shift"),
    Mutant("offline_train fits a non-finite window", "forecaster.py",
           "draw, _ = _windows(model, train_samples, finite=True)",
           "draw, _ = _windows(model, train_samples)"),
    Mutant("a split's non-finite check skipped", "forecaster.py",
           "            if finite:\n",
           "            if False:\n"),
    Mutant("a split's non-finite window named one origin late", "forecaster.py",
           "origin = max(samples.start, lo + int(np.argmin(ok)) - samples.k)",
           "origin = max(samples.start, lo + int(np.argmin(ok)) - samples.k + 1)"),
    Mutant("a list's non-finite check skipped", "forecaster.py",
           "if finite and not (np.isfinite(s.x).all() and np.isfinite(s.y).all()):",
           "if finite and not np.isfinite(s.x).all():"),
    Mutant("the CLI refuses a window of exactly hist_batch records", "cli.py",
           "released < cfg.hist_batch", "released <= cfg.hist_batch"),
    Mutant("fit memoized by horizon alone", "cli.py",
           'once(("fit", horizon, seed)', 'once(("fit", horizon)'),
    Mutant("pretraining skips its check at 0 epochs", "engine.py",
           "        _windows(model, val_samples, finite=True)\n        return a\n",
           "        return a\n"),
    Mutant("the delay one step short", "engine.py",
           "if len(pending) > model.k:", "if len(pending) >= model.k:"),
    Mutant("the window mean over b + 1", "engine.py",
           "return np.add.reduce(rows, axis=0) / len(rows)",
           "return np.add.reduce(rows, axis=0) / (len(rows) + 1)"),
    Mutant("the sliding sum never subtracts", "engine.py",
           "                acc[name] += g\n                acc[name] -= left[name]\n",
           "                acc[name] += g\n"),
    Mutant("adaptz's window counted as never filling at exactly b releases",
           "engine.py", "fills = b <= n_steps - model.k", "fills = b < n_steps - model.k"),
    Mutant("pretraining reads the first hisgrad of its sequence", "engine.py",
           "hisgrad = hisgrads[n - b]", "hisgrad = hisgrads[0]"),
    Mutant("pretraining's sequence read one record early", "engine.py",
           "hisgrad = hisgrads[n - b]", "hisgrad = hisgrads[max(n - b - 1, 0)]"),
    Mutant("the sequence carries one row too many past a stack", "engine.py",
           "held = rows[max(len(rows) - b + 1, 0):]", "held = rows[max(len(rows) - b, 0):]"),
    Mutant("pretraining reads a non-finite window", "engine.py",
           "_front_end(model, val_samples, finite=True)", "_front_end(model, val_samples)"),
    Mutant("fogd at half its rate", "engine.py",
           "delta = delta - cfg.lr_fogd * g_delta",
           "delta = delta - 0.5 * cfg.lr_fogd * g_delta"),
    Mutant("the head stepped at the adapter's rate", "engine.py",
           "descend(model, {n: acc[n] for n in head}, 1.0)",
           "descend(model, {n: acc[n] for n in head}, cfg.lr_adapter)"),
    Mutant("the head share scaled by lr_adapter", "engine.py",
           "rec.g_y * (cfg.lr_head / b)", "rec.g_y * (cfg.lr_adapter / b)"),
    Mutant("descend adds the gradient at rate 1.0", "diffmath.py",
           "step = p - g", "step = p + g"),
    Mutant("duplicate origins accepted", "engine.py",
           "if origin <= prev:", "if origin < prev:"),
    Mutant("the std clamped at ten times STD_EPS", "forecaster.py",
           "/ L), STD_EPS)", "/ L), 10 * STD_EPS)"),
    Mutant("STD_EPS = 1e-4", "forecaster.py", "STD_EPS = 1e-5", "STD_EPS = 1e-4"),
    Mutant("the backward pass skips block 1's mask", "forecaster.py",
           "g = (g @ tape.block_weights[j]) * (tape.ins[j] > 0.0)",
           "g = (g @ tape.block_weights[j]) * ((tape.ins[j] > 0.0) | (i == 1))"),
    Mutant("a train target one row into val", "datastream.py",
           "window_range(L - 1, b1 - 1 - k)", "window_range(L - 1, b1 - k)"),
    Mutant("the adapter's out.bias gradient halved", "adapter.py",
           'grads["out.bias"] = grad_delta.sum(axis=0)',
           'grads["out.bias"] = 0.5 * grad_delta.sum(axis=0)'),
    Mutant("the regret bound's last term over 4", "regret.py",
           "+ T * problem.gamma * (g_hat + lambda_hat) / 2.0)",
           "+ T * problem.gamma * (g_hat + lambda_hat) / 4.0)"),
]


def mutated(text: str, mutant: Mutant) -> str:
    """text with the mutant applied; ValueError unless its text occurs in
    text exactly once."""
    count = text.count(mutant.old)
    if count != 1:
        raise ValueError(f"mutant {mutant.name!r}: its text occurs {count} times "
                         f"in src/driftcast/{mutant.path}, not once")
    return text.replace(mutant.old, mutant.new)


def run_tier1(tree: Path) -> Tuple[str, Optional[str], float]:
    """(verdict, first failing test, seconds) of Tier-1 with -x in tree;
    the verdict is passed, failed or the pytest exit code it ended with."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(tree / "src"), os.environ.get("PYTHONPATH")]))
    start = time.perf_counter()
    try:
        done = subprocess.run([sys.executable] + TIER1, cwd=tree, env=env,
                              capture_output=True, text=True, timeout=TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return f"timeout after {TIMEOUT_S} s", None, time.perf_counter() - start
    seconds = time.perf_counter() - start
    if done.returncode == 0:
        return "passed", None, seconds
    failing = next((line.split(" - ", 1)[0]
                    for line in done.stdout.splitlines()
                    if line.startswith(("FAILED ", "ERROR "))), None)
    if done.returncode == 1:
        return "failed", failing, seconds
    return f"pytest exit {done.returncode}", failing, seconds


def in_copy(mutant: Optional[Mutant]) -> Tuple[str, Optional[str], float]:
    """Run Tier-1 on a fresh copy of the tree, with the mutant applied."""
    with tempfile.TemporaryDirectory(prefix="mutant-") as tmp:
        tree = Path(tmp) / "tree"
        shutil.copytree(ROOT, tree, ignore=SKIP)
        if mutant is not None:
            path = tree / "src" / "driftcast" / mutant.path
            path.write_text(mutated(path.read_text(encoding="utf-8"), mutant),
                            encoding="utf-8")
        return run_tier1(tree)


def main(argv: Optional[List[str]] = None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("names", nargs="*", help="run only the mutants of these names")
    p.add_argument("--list", action="store_true", help="print the mutants' names")
    args = p.parse_args(argv)
    if args.list:
        print("\n".join(m.name for m in MUTANTS))
        return 0
    unknown = set(args.names) - {m.name for m in MUTANTS}
    if unknown:
        print(f"unknown mutant: {', '.join(sorted(unknown))}", file=sys.stderr)
        return 2
    chosen = [m for m in MUTANTS if not args.names or m.name in args.names]
    try:
        for m in chosen:        # a stale mutant fails before the first run
            mutated((ROOT / "src" / "driftcast" / m.path).read_text(encoding="utf-8"), m)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    verdict, failing, seconds = in_copy(None)
    if verdict != "passed":
        print(f"error: the unmutated suite {verdict} ({failing})", file=sys.stderr)
        return 2
    print(f"unmutated suite passed in {seconds:.0f} s", flush=True)
    survived = 0
    for m in chosen:
        verdict, failing, seconds = in_copy(m)
        if verdict == "failed":
            print(f"killed    {m.name}: {failing} ({seconds:.0f} s)", flush=True)
        else:
            survived += 1
            label = "survived" if verdict == "passed" else verdict
            print(f"{label:<9} {m.name} ({seconds:.0f} s)", flush=True)
    print(f"{len(chosen) - survived} of {len(chosen)} killed")
    return 0 if survived == 0 else 1


if __name__ == "__main__":
    sys.exit(main())

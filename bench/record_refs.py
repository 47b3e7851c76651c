#!/usr/bin/env python3
"""Record the reference mse of every method for some workload seeds.

    python3 bench/record_refs.py --workload drift-lab --size full --seeds 1-10

Each seed is set up once and each method run once; the mse values are
merged into bench/references.json, which run.py checks against (relative
drift at most 1e-12). Record only from a commit whose acceptance suite passes.
"""

import argparse
import json
import sys

import run


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(run.WORKLOADS))
    p.add_argument("--size", default="full", choices=sorted(run.SIZES))
    p.add_argument("--seeds", required=True, help="e.g. 1-10 or 3,2025")
    args = p.parse_args()
    seeds = []
    for part in args.seeds.split(","):
        lo, _, hi = part.partition("-")
        seeds += range(int(lo), int(hi or lo) + 1)
    run.prepare()
    from driftcast import engine
    refs = json.loads(run.REFERENCES.read_text())
    table = refs.setdefault(args.workload, {}).setdefault(args.size, {})
    for seed in seeds:
        bench = run.Bench(argparse.Namespace(workload=args.workload, size=args.size,
                                             seed=seed))
        model, net, test, cfg = bench.set_up()
        table[str(seed)] = {m: engine.run_method(m, model, net, test, cfg).mse
                            for m in run.METHODS}
        bench.csv_path.unlink(missing_ok=True)
        print(seed, table[str(seed)], flush=True)
    run.REFERENCES.write_text(json.dumps(refs, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Run-to-run spread of the end-to-end metrics.

    python3 perfbench/spread.py [--seeds 10] [--first-seed 1] [--workload NAME ...]

Runs each workload once per seed (untraced, BENCHMARK.json's
run_seconds) and prints, per metric, the median over the runs and the
distance between the first and third quartiles (Python's
statistics.quantiles, n=4) as a share of the median, next to the
metric's bound.  A spread above a third of its bound is flagged.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def main():
    p = argparse.ArgumentParser()
    p.add_argument("--seeds", type=int, default=10)
    p.add_argument("--first-seed", type=int, default=1)
    p.add_argument("--workload", action="append")
    args = p.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    workloads = args.workload or [w["name"] for w in spec["workloads"]]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    for w in workloads:
        values = {m: [] for m in bounds}
        for seed in range(args.first_seed, args.first_seed + args.seeds):
            out = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload", w, "--seed", str(seed),
                 "--seconds", str(spec["run_seconds"]), "--trace", "0"],
                cwd=ROOT, capture_output=True, text=True)
            if out.returncode != 0:
                sys.exit("%s seed %d failed:\n%s" % (w, seed, out.stderr))
            result = json.loads(out.stdout.strip().split("\n")[-1])
            if not result["correct"] or result["failed"]:
                sys.exit("%s seed %d: %d failed operations" % (w, seed, result["failed"]))
            for m, v in result["metrics"].items():
                values[m].append(v["value"])
            host = [l.strip() for l in out.stdout.split("\n") if l.startswith("host:")]
            print("%s seed %d: %s [%s]" % (w, seed, " ".join(
                "%s=%.4g" % (m, v["value"]) for m, v in result["metrics"].items()),
                host[0] if host else ""), flush=True)
        for m, vs in values.items():
            med = statistics.median(vs)
            q = statistics.quantiles(vs, n=4)
            spread = (q[2] - q[0]) / med if med else float("inf")
            flag = "  <-- above a third of the bound" if spread > bounds[m] / 3 else ""
            print("  %-12s %-18s median %12.6g  spread %6.3f  bound %.2f%s"
                  % (w, m, med, spread, bounds[m], flag))


if __name__ == "__main__":
    main()

#!/usr/bin/env python3
"""Rerun benchmark workloads with several seeds and report each end-to-end
metric's median, quartiles and spread (the distance between the quartiles
as a share of the median), then derive the bounds BENCHMARK.json holds.

Run from the repository root:

    python3 perfbench/steadiness.py --workload replay --runs 10
    python3 perfbench/steadiness.py --runs 10          # every workload

Each run is the command in BENCHMARK.json with its run_seconds, and run i
uses seed i.

Bound rule: every end-to-end metric except setup_s gets four times the
largest spread seen on any workload, rounded up to a whole percent, at
least 5 % and at most 25 %; setup_s gets the largest bound allowed, 25 %.
"""

import argparse
import json
import math
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
MAX_BOUND = 0.25
MIN_BOUND = 0.05


def run_once(command, workload, seed, seconds):
    args = command + ["--workload", workload, "--seed", str(seed),
                      "--seconds", str(seconds), "--trace", "0"]
    out = subprocess.run(args, cwd=ROOT, capture_output=True, text=True, check=False)
    if out.returncode != 0:
        sys.exit(f"{workload} seed {seed} failed ({out.returncode}):\n{out.stderr}")
    result = json.loads(out.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        sys.exit(f"{workload} seed {seed}: outputs were not correct")
    return result


def spread(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3, (q3 - q1) / med if med else math.inf


def derive_bounds(worst):
    bounds = {}
    for name, s in worst.items():
        if name == "setup_s":
            bounds[name] = MAX_BOUND
        else:
            bounds[name] = min(MAX_BOUND, max(MIN_BOUND, math.ceil(400 * s) / 100))
    return bounds


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", action="append",
                   help="workload to rerun (repeatable; default: all)")
    p.add_argument("--runs", type=int, default=10)
    a = p.parse_args()
    if a.runs < 2:
        p.error("--runs must be at least 2 to have quartiles")
    command, seconds = spec["command"], spec["run_seconds"]
    workloads = a.workload or [w["name"] for w in spec["workloads"]]
    metrics = [m["name"] for m in spec["end_to_end"]]
    worst = {m: 0.0 for m in metrics}
    for w in workloads:
        results = [run_once(command, w, seed, seconds) for seed in range(1, a.runs + 1)]
        shares = {r["failed"] / r["attempted"] for r in results}
        print(f"{w}: {a.runs} runs, seeds 1..{a.runs}, failed share {sorted(shares)}")
        for m in metrics:
            values = [r["metrics"][m]["value"] for r in results]
            unit = results[0]["metrics"][m]["unit"]
            q1, med, q3, s = spread(values)
            worst[m] = max(worst[m], s)
            print(f"  {m:14} median {med:.6g} {unit}  q1 {q1:.6g}  q3 {q3:.6g}  "
                  f"spread {100 * s:.2f} %  values {[round(v, 6) for v in values]}")
    print("derived bounds:", json.dumps(derive_bounds(worst)))
    for m in spec["end_to_end"]:
        if m["name"] != "setup_s" and worst[m["name"]] > m["bound"] / 3:
            print(f"  {m['name']}: worst spread {100 * worst[m['name']]:.2f} % exceeds a third "
                  f"of its bound {m['bound']}")


if __name__ == "__main__":
    main()

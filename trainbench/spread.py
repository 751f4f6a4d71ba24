#!/usr/bin/env python3
"""Run-to-run spread of the benchmark's end-to-end metrics.

Runs the benchmark N times per workload, each with its own seed, and prints
for every end-to-end metric the median and the interquartile range as a
share of the median, next to the metric's bound from BENCHMARK.json. A
spread below a third of the bound is marked ok. Run from the checkout root:

    python3 trainbench/spread.py [--runs 10] [--first-seed 1] [workload ...]
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_once(spec, workload, seed):
    cmd = spec["command"] + ["--workload", workload, "--seed", str(seed),
                             "--seconds", str(spec["run_seconds"]), "--trace", "0"]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=900, check=False)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        sys.exit("%s seed %d failed (exit %d):\n%s%s" % (
            workload, seed, done.returncode, done.stdout, done.stderr))
    result = json.loads(lines[-1])
    if not result["correct"]:
        sys.exit("%s seed %d reported incorrect output:\n%s" % (
            workload, seed, done.stdout))
    return result


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("workloads", nargs="*",
                        default=[w["name"] for w in spec["workloads"]])
    args = parser.parse_args()
    all_ok = True
    for workload in args.workloads:
        values = {m["name"]: [] for m in spec["end_to_end"]}
        for i in range(args.runs):
            seed = args.first_seed + i
            metrics = run_once(spec, workload, seed)["metrics"]
            for name in values:
                values[name].append(metrics[name]["value"])
            print("%s seed %d: %s" % (workload, seed, " ".join(
                "%s=%.5g" % (name, v[-1]) for name, v in values.items())),
                  flush=True)
        print(workload)
        for m in spec["end_to_end"]:
            v = values[m["name"]]
            med = statistics.median(v)
            q = statistics.quantiles(v, n=4)
            spread = (q[2] - q[0]) / med
            ok = m["name"] == "setup_s" or spread < m["bound"] / 3
            all_ok = all_ok and ok
            print("  %-22s median %-12.6g spread %.4f  bound %.2f  %s" % (
                m["name"], med, spread, m["bound"], "ok" if ok else "WIDE"))
        sys.stdout.flush()
    return 0 if all_ok else 1


if __name__ == "__main__":
    sys.exit(main())

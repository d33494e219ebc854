#!/usr/bin/env python3
"""Measure the benchmark's spread across seeds, as its acceptance rule does.

    python3 perfbench/spread.py --workloads dag-mix serve-bursty --seeds 1-10

For each workload it runs perfbench/run.py once per seed (with --trace 0
and BENCHMARK.json's run_seconds unless --seconds is given) and prints, per
end-to-end metric, the median and the spread: the distance between the
first and third quartile (statistics.quantiles(n=4)) as a share of the
median, next to the metric's bound. A spread above a third of its bound is
flagged; setup_s's spread is informational.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

PKG = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(PKG)


def parse_seeds(text):
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def run_once(workload, seed, seconds):
    cmd = [sys.executable, os.path.join(PKG, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or not lines:
        sys.stderr.write(out.stderr)
        raise SystemExit("%s seed %d failed (exit %d)" % (workload, seed, out.returncode))
    return json.loads(lines[-1])


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", nargs="+",
                        default=[w["name"] for w in bench["workloads"]])
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", type=float, default=bench["run_seconds"])
    parser.add_argument("--verbose", action="store_true", help="print every run's value")
    args = parser.parse_args()

    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    worst_ok = True
    for workload in args.workloads:
        values = {name: [] for name in bounds}
        for seed in parse_seeds(args.seeds):
            result = run_once(workload, seed, args.seconds)
            if not result["correct"] or result["failed"]:
                print("%s seed %d: correct=%s failed=%d" %
                      (workload, seed, result["correct"], result["failed"]))
            for name in bounds:
                values[name].append(result["metrics"][name]["value"])
        print("\n%s (%d seeds, %s s each)" % (workload, len(values["setup_s"]), args.seconds))
        print("  %-20s %14s %9s %8s" % ("metric", "median", "spread", "bound"))
        for name, vals in values.items():
            q1, _, q3 = statistics.quantiles(vals, n=4)
            med = statistics.median(vals)
            spread = (q3 - q1) / med if med else float("inf")
            flag = ""
            if name != "setup_s" and spread > bounds[name] / 3:
                flag = "  <-- above bound/3"
                worst_ok = False
            print("  %-20s %14.6g %8.2f%% %7.0f%%%s" %
                  (name, med, 100 * spread, 100 * bounds[name], flag))
            if args.verbose:
                print("      " + " ".join("%.6g" % v for v in vals))
    return 0 if worst_ok else 1


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Self-test of memflow's benchmark.

    python3 perfbench/selftest.py

Runs every workload of BENCHMARK.json at a tiny size (--size tiny,
--seconds 1) through perfbench/run.py and asserts that:
  * the last stdout line is the result object with exactly the keys
    correct/attempted/failed/metrics, correct, and no failed operation;
  * --trace 0 emits exactly the end_to_end metrics, each with its unit and
    a finite value above 0, and --trace 1 exactly the per_layer metrics;
  * a deliberately corrupted output (--corrupt) is caught: correct is false
    and at least one operation failed;
  * in a directory holding only BENCHMARK.json and the benchmark's paths,
    the command exits non-zero without printing a result.
Exits 0 when every check passes.
"""

import json
import math
import os
import re
import shutil
import subprocess
import sys

PKG = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(PKG)
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")

failures = []


def check(ok, what):
    print("%s %s" % ("ok  " if ok else "FAIL", what))
    if not ok:
        failures.append(what)


def run(cwd, workload, trace, *extra):
    cmd = [sys.executable, os.path.join("perfbench", "run.py"), "--workload", workload,
           "--seed", "1", "--seconds", "1", "--trace", str(trace), "--size", "tiny"]
    out = subprocess.run(cmd + list(extra), cwd=cwd, capture_output=True, text=True,
                         timeout=900)
    lines = out.stdout.strip().splitlines()
    result = None
    if lines:
        try:
            result = json.loads(lines[-1])
        except ValueError:
            result = None
    return out.returncode, result, out.stderr


def check_metrics(label, result, expected):
    metrics = result.get("metrics", {})
    check(set(metrics) == set(expected),
          "%s emits exactly its %d metrics (missing %s, extra %s)" %
          (label, len(expected), sorted(set(expected) - set(metrics)),
           sorted(set(metrics) - set(expected))))
    bad = [name for name, spec in expected.items() if name in metrics and not (
        metrics[name].get("unit") == spec["unit"] and
        isinstance(metrics[name].get("value"), (int, float)) and
        math.isfinite(metrics[name]["value"]))]
    check(not bad, "%s values are finite numbers in their units (bad: %s)" % (label, bad))


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    check(set(bench) == {"command", "paths", "run_seconds", "workloads", "end_to_end",
                         "per_layer"}, "BENCHMARK.json has exactly the contract's keys")
    names = [m["name"] for m in bench["end_to_end"] + bench["per_layer"]]
    check(all(NAME.match(n) for n in names) and len(names) == len(set(names)),
          "metric names are well formed and unique")
    check(all(0 < m["bound"] <= 0.25 for m in bench["end_to_end"]), "bounds are in (0, 0.25]")
    check(any(m["name"] == "setup_s" and m["unit"] == "s" and m["better"] == "lower"
              for m in bench["end_to_end"]), "setup_s is an end-to-end metric")
    end_to_end = {m["name"]: m for m in bench["end_to_end"]}
    per_layer = {m["name"]: m for m in bench["per_layer"]}

    for w in (w["name"] for w in bench["workloads"]):
        code, result, err = run(ROOT, w, 0)
        check(code == 0 and result is not None, "%s --trace 0 exits 0 with a result" % w)
        if result is None:
            sys.stderr.write(err[-2000:])
            continue
        check(set(result) == {"correct", "attempted", "failed", "metrics"},
              "%s result has exactly correct/attempted/failed/metrics" % w)
        check(result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1,
              "%s is correct with no failed operation (attempted %s)" % (w, result["attempted"]))
        check_metrics("%s --trace 0" % w, result, end_to_end)
        check(all(m["value"] > 0 for m in result["metrics"].values()),
              "%s end-to-end values are all above 0" % w)

        code, result, err = run(ROOT, w, 1)
        check(code == 0 and result is not None and result["correct"] is True,
              "%s --trace 1 exits 0 with a correct result" % w)
        if result is not None:
            check_metrics("%s --trace 1" % w, result, per_layer)

        code, result, err = run(ROOT, w, 0, "--corrupt")
        check(code == 0 and result is not None and result["correct"] is False and
              result["failed"] >= 1, "%s --corrupt is caught as a failed operation" % w)

    # Without the program's sources the benchmark must fail without a result.
    lonely = os.path.join(ROOT, ".bench_build", "selftest-lonely")
    shutil.rmtree(lonely, ignore_errors=True)
    os.makedirs(lonely)
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), lonely)
    for path in bench["paths"]:
        shutil.copytree(os.path.join(ROOT, path), os.path.join(lonely, path),
                        ignore=shutil.ignore_patterns("__pycache__"))
    code, result, _ = run(lonely, bench["workloads"][0]["name"], 0)
    check(code != 0 and result is None, "without src/ the command fails and prints no result")
    shutil.rmtree(lonely, ignore_errors=True)

    print("\n%d check(s) failed" % len(failures) if failures else "\nall checks passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())

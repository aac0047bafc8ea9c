#!/usr/bin/env python3
"""Self-test of the benchmark: runs every workload briefly, untraced and
traced, and checks the result line against BENCHMARK.json.

    python3 perfbench/selftest.py [--seconds S]

Run from the repository root (the first run builds). For each workload it
checks that the command exits 0, that its last stdout line is one JSON
object with exactly the keys correct/attempted/failed/metrics, that the run
was correct with no failed op, and that the metrics are exactly the
end_to_end names (untraced) or the per_layer names (traced), each a finite
number with the unit BENCHMARK.json gives it. Exits non-zero on any
mismatch.
"""
import argparse
import json
import math
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def check_run(spec, workload, trace, seconds):
    command = [sys.executable, os.path.join(HERE, "run.py"),
               "--workload", workload, "--seed", "7",
               "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(command, cwd=ROOT, capture_output=True, text=True,
                          timeout=900)
    where = "%s trace=%d" % (workload, trace)
    errors = []
    if proc.returncode != 0:
        return ["%s: exit %d\n%s" % (where, proc.returncode, proc.stderr)]
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        return ["%s: last stdout line is not JSON" % where]
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        errors.append("%s: result keys %s" % (where, sorted(result)))
    if result.get("correct") is not True or result.get("failed") != 0:
        errors.append("%s: correct=%s failed=%s" %
                      (where, result.get("correct"), result.get("failed")))
    if not isinstance(result.get("attempted"), int) or result["attempted"] < 1:
        errors.append("%s: attempted=%s" % (where, result.get("attempted")))
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    units = {m["name"]: m["unit"] for m in wanted}
    metrics = result.get("metrics", {})
    if sorted(metrics) != sorted(units):
        missing = sorted(set(units) - set(metrics))
        extra = sorted(set(metrics) - set(units))
        errors.append("%s: missing %s, unexpected %s" % (where, missing, extra))
    for name, metric in metrics.items():
        value = metric.get("value")
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            errors.append("%s: %s value %r" % (where, name, value))
        if name in units and metric.get("unit") != units[name]:
            errors.append("%s: %s unit %r, expected %r" %
                          (where, name, metric.get("unit"), units[name]))
    return errors


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--seconds", type=int, default=2)
    args = parser.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    errors = []
    for workload in [w["name"] for w in spec["workloads"]]:
        for trace in (0, 1):
            found = check_run(spec, workload, trace, args.seconds)
            print("%-14s trace=%d %s" % (workload, trace,
                                         "ok" if not found else "FAILED"))
            errors += found
    for error in errors:
        print(error, file=sys.stderr)
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())

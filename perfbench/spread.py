#!/usr/bin/env python3
"""Runs the benchmark over several seeds and reports each metric's spread.

Usage (from the repository root):

    python3 perfbench/spread.py --workload store-mix --seeds 1-10 [--trace 0]

It checks that every run reports exactly the metrics BENCHMARK.json declares
for the mode, with their units. For every metric it prints the median and
the inter-quartile distance as a share of the median
(statistics.quantiles(values, n=4)), next to the metric's bound from
BENCHMARK.json. Use it to check that a benchmark change
keeps every spread well inside its bound.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def seeds_of(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--seconds", type=int)
    ap.add_argument("--trace", type=int, default=0)
    args = ap.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    seconds = args.seconds or bench["run_seconds"]
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}
    declared = bench["per_layer" if args.trace else "end_to_end"]
    expected = {m["name"]: m["unit"] for m in declared}

    values = {}
    for seed in seeds_of(args.seeds):
        cmd = [sys.executable, os.path.join(ROOT, "perfbench", "run.py"),
               "--workload", args.workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", str(args.trace)]
        start = time.monotonic()
        out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
        wall = time.monotonic() - start
        lines = out.stdout.strip().splitlines()
        if out.returncode != 0 or not lines:
            print("seed %d: exit %d\n%s" % (seed, out.returncode,
                                            out.stdout[-2000:]))
            return 1
        result = json.loads(lines[-1])
        got = {k: v["unit"] for k, v in result["metrics"].items()}
        if got != expected:
            print("seed %d: metrics differ from BENCHMARK.json: %s" %
                  (seed, sorted(set(got.items()) ^ set(expected.items()))))
            return 1
        summary = " ".join("%s=%.4g" % (k, v["value"])
                           for k, v in result["metrics"].items()
                           if k in bounds)
        print("seed %d: %.0f s, correct=%s %s" %
              (seed, wall, result["correct"], summary), flush=True)
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])

    print("%-34s %12s %8s %6s" % ("metric", "median", "spread", "bound"))
    for name, v in values.items():
        med = statistics.median(v)
        spread = float("nan")
        if len(v) >= 2 and med:
            q = statistics.quantiles(v, n=4)
            spread = (q[2] - q[0]) / med
        bound = bounds.get(name)
        print("%-34s %12.5g %8.3f %6s" % (name, med, spread,
                                          "" if bound is None else bound))
    return 0


if __name__ == "__main__":
    sys.exit(main())

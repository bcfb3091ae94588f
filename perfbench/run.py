#!/usr/bin/env python3
"""Builds the benchmark from source and runs one workload.

Usage (from the repository root):

    python3 perfbench/run.py --workload store-mix --seed 1 --trace 0

--seconds defaults to BENCHMARK.json's run_seconds, the run length the
declared bounds were measured at. The build goes to .bench_build/perfbench
(CMake, Release) and is reused by later runs. Build output goes to stderr; stdout carries the benchmark's
report, whose last line is the JSON result. The exit code is non-zero when
the build fails, a correctness check fails, or the run overruns its time.
"""
import argparse
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH_DIR = os.path.join(ROOT, "perfbench")
OUT_DIR = os.path.join(ROOT, ".bench_build")
BUILD_DIR = os.path.join(OUT_DIR, "perfbench")


def run_timeout_s(seconds):
    """Wall-clock limit of one run: the measured seconds plus the set-ups,
    drains and final checks around them (about 0.4 s per second measured,
    with room to spare)."""
    return 2 * seconds + 60


def declared_run_seconds():
    """run_seconds from BENCHMARK.json, or None when it is not there."""
    try:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            return int(json.load(f)["run_seconds"])
    except (OSError, ValueError, KeyError):
        return None


def build(env):
    """Configures (once) and builds the perfbench target; True on success."""
    steps = []
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", BENCH_DIR, "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=Release"])
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps.append(["cmake", "--build", BUILD_DIR, "--target", "perfbench",
                  "-j", jobs])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                          env=env, check=False).returncode != 0:
            return False
    return True


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=["store-mix", "dlog-sync"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=declared_run_seconds())
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()
    if args.seconds is None:
        ap.error("--seconds is required when BENCHMARK.json is missing")

    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        print("perfbench: the protocol sources (src/) are missing; nothing "
              "to build", file=sys.stderr)
        return 2

    tmp = os.path.join(OUT_DIR, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp)  # compiler and run scratch stay here
    if not build(env):
        print("perfbench: build failed", file=sys.stderr)
        return 3

    cmd = [os.path.join(BUILD_DIR, "perfbench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--tmp-dir", os.path.join(OUT_DIR, "perfbench-tmp"),
           "--out-dir", os.path.join(OUT_DIR, "perfbench-traces")]
    sys.stdout.flush()
    timeout = run_timeout_s(args.seconds)
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env)
    try:
        return proc.wait(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        print("perfbench: run exceeded %d s" % timeout, file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Runs one workload of the repository benchmark.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Run from the repository root. Builds perfbench (the moqo library from
this checkout's sources plus the workload runner in perfbench/src) into
$CARGO_TARGET_DIR, or .bench_build when unset, then runs the workload in
its own process. The last stdout line is the result object:
    {"correct": ..., "attempted": N, "failed": N, "metrics": {...}}
with every end-to-end metric (--trace 0) or every per-layer metric
(--trace 1). The exit status is 0 only when every output check passed.
See perfbench/README.md for the workloads and metrics.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("anytime_session", "serve_shared", "serve_distinct")
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def log(message):
    print("run.py: " + message, file=sys.stderr, flush=True)


def build(build_dir):
    """Configures (once) and builds the perfbench binary; returns its path."""
    jobs = str(os.cpu_count() or 1)
    steps = []
    configured = any(os.path.exists(os.path.join(build_dir, f))
                     for f in ("build.ninja", "Makefile"))
    if not configured:
        configure = ["cmake", "-S", HERE, "-B", build_dir,
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        steps.append(configure)
    steps.append(["cmake", "--build", build_dir, "--target", "perfbench",
                  "-j", jobs])
    for step in steps:
        # Build output goes to stderr: stdout carries only the result.
        result = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr,
                                timeout=BUILD_TIMEOUT_S)
        if result.returncode != 0:
            log("build step failed: " + " ".join(step))
            return None
    return os.path.join(build_dir, "perfbench")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")

    build_dir = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    try:
        binary = build(build_dir)
    except (OSError, subprocess.TimeoutExpired) as e:
        log("build failed: %s" % e)
        return 1
    if binary is None:
        return 1

    command = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--scratch", os.path.join(build_dir, "scratch")]
    try:
        result = subprocess.run(command, stdout=subprocess.PIPE,
                                timeout=RUN_TIMEOUT_S, text=True)
    except subprocess.TimeoutExpired:
        log("workload timed out after %d s" % RUN_TIMEOUT_S)
        return 1
    lines = result.stdout.splitlines()
    try:
        outcome = json.loads(lines[-1])
    except (IndexError, ValueError):
        log("workload printed no result (exit %d)" % result.returncode)
        return 1
    if set(outcome) != {"correct", "attempted", "failed", "metrics"}:
        log("malformed result line")
        return 1
    print("\n".join(lines), flush=True)
    return result.returncode


if __name__ == "__main__":
    sys.exit(main())

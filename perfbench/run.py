#!/usr/bin/env python3
"""Builds and runs the LagOver population-scale benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds perfbench/ (which compiles the simulator from src/) into
.bench_build/perfbench with CMake, then runs lagover_perfbench with the
same arguments. Traced runs also write their spans to
.bench_build/perfbench/spans-<workload>-<seed>.csv. The last line of
stdout is the benchmark's JSON result. Build output goes to stderr.
Exits non-zero, printing no result, when the build or the run fails.
"""

import argparse
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH_DIR = os.path.join(ROOT, "perfbench")
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD_DIR, "lagover_perfbench")
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def build():
    jobs = str(min(4, os.cpu_count() or 1))
    steps = [
        ["cmake", "-S", BENCH_DIR, "-B", BUILD_DIR,
         "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", BUILD_DIR, "-j", jobs],
    ]
    for step in steps:
        # Build chatter goes to stderr so stdout carries only results.
        subprocess.run(step, check=True, stdout=sys.stderr, cwd=ROOT,
                       timeout=BUILD_TIMEOUT_S)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=["0", "1"])
    args = parser.parse_args()

    try:
        build()
    except (OSError, subprocess.SubprocessError) as error:
        print(f"perfbench: build failed: {error}", file=sys.stderr)
        return 1

    command = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", args.trace]
    if args.trace == "1":
        spans = os.path.join(BUILD_DIR,
                             f"spans-{args.workload}-{args.seed}.csv")
        command += ["--spans", spans]
    try:
        run = subprocess.run(command, cwd=ROOT, timeout=RUN_TIMEOUT_S)
        return run.returncode
    except (OSError, subprocess.SubprocessError) as error:
        print(f"perfbench: run failed: {error}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

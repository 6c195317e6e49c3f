#!/usr/bin/env python3
"""Prove two builds produce byte-identical bench outputs.

    bench_identity.py BASE_BUILD HEAD_BUILD
    bench_identity.py --self-test

In each CMake build tree it runs:

  * every bench_* binary except bench_micro (whose JSON carries
    google-benchmark timings) and bench_scenario, with default flags
    plus --bench-json;
  * bench_scenario on each examples/scenario_*.json;
  * bench_chaos (async engine), bench_fig4_churn (sync engine) and
    bench_failover (crash, rejoin and the failover ladder) with
    --events-out and --health-out;
  * bench_reliability (loss, anti-entropy repair, duplicates),
    bench_push_source (pull and push source) and bench_scenario on each
    examples/scenario_*.json (shed drops in the overload scenario) with
    --spans-out, so the per-item feed span streams (kinds, hops,
    causes) are compared too.

It then compares the SHA-256 digest of every output file between the
two trees and names each file that differs or exists on one side only.
A change that keeps the RNG stream must leave all of them identical.
The outputs stay in HEAD_BUILD/bench-identity/{base,head} for
inspection; each run starts by emptying that directory.

--self-test proves the comparison fires: a one-byte difference and a
missing file must both be reported, and identical trees must pass.

Exit codes: 0 identical, 1 differences (or a failed run / self-test),
2 usage.
"""

import argparse
import concurrent.futures
import glob
import hashlib
import os
import shutil
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SKIPPED = {"bench_micro", "bench_scenario"}
STREAMED = ("bench_chaos", "bench_fig4_churn", "bench_failover")
SPANNED = ("bench_reliability", "bench_push_source")
RUN_TIMEOUT_S = 900
JOBS = min(4, os.cpu_count() or 1)  # benches run in parallel per tree


def bench_names(build):
    """The bench_* executables in a build tree's bench/ directory."""
    bench_dir = os.path.join(build, "bench")
    if not os.path.isdir(bench_dir):
        return set()
    return {name for name in os.listdir(bench_dir)
            if name.startswith("bench_") and
            os.access(os.path.join(bench_dir, name), os.X_OK) and
            not os.path.isdir(os.path.join(bench_dir, name))}


def runs(names):
    """(bench, args) for every run, in a stable order. Each run names its
    own output files, written to the run's working directory."""
    plan = []
    for name in sorted(names - SKIPPED):
        plan.append((name, ["--bench-json", f"{name}.bench.json"]))
    if "bench_scenario" in names:
        for path in sorted(glob.glob(
                os.path.join(ROOT, "examples", "scenario_*.json"))):
            stem = os.path.splitext(os.path.basename(path))[0]
            plan.append(("bench_scenario",
                         ["--scenario", path,
                          "--bench-json", f"bench_{stem}.bench.json"]))
            plan.append(("bench_scenario",
                         ["--scenario", path, "--bench-json", "-",
                          "--spans-out", f"bench_{stem}.spans.jsonl"]))
    # Streaming enables telemetry, whose profile block in the bench JSON
    # carries wall-clock timings: compare the streams only.
    for name in STREAMED:
        if name in names:
            plan.append((name, ["--bench-json", "-",
                                "--events-out", f"{name}.events.jsonl",
                                "--health-out", f"{name}.health.jsonl"]))
    for name in SPANNED:
        if name in names:
            plan.append((name, ["--bench-json", "-",
                                "--spans-out", f"{name}.spans.jsonl"]))
    return plan


def run_one(build, out_dir, bench, args):
    """Runs one bench with its working directory in `out_dir`; returns an
    error message, or None on success."""
    binary = os.path.join(os.path.abspath(build), "bench", bench)
    command = [binary] + args
    try:
        result = subprocess.run(command, cwd=out_dir,
                                stdout=subprocess.DEVNULL,
                                stderr=subprocess.PIPE, text=True,
                                timeout=RUN_TIMEOUT_S)
    except (OSError, subprocess.SubprocessError) as error:
        return f"{' '.join(command)}: {error}"
    if result.returncode != 0:
        tail = result.stderr.strip().splitlines()[-3:]
        return (f"{' '.join(command)} exited {result.returncode}: "
                + " | ".join(tail))
    return None


def digests(directory):
    """{relative path: sha256 hex} for every file under `directory`."""
    out = {}
    for parent, _, files in os.walk(directory):
        for name in files:
            path = os.path.join(parent, name)
            with open(path, "rb") as handle:
                digest = hashlib.sha256(handle.read()).hexdigest()
            out[os.path.relpath(path, directory)] = digest
    return out


def compare(base, head):
    """Messages naming each file whose digest differs between the trees."""
    problems = []
    for name in sorted(set(base) | set(head)):
        if name not in head:
            problems.append(f"{name}: only in BASE")
        elif name not in base:
            problems.append(f"{name}: only in HEAD")
        elif base[name] != head[name]:
            problems.append(f"{name}: differs ({base[name][:12]} vs "
                            f"{head[name][:12]})")
    return problems


def produce(build, out_dir, names):
    """Runs the whole plan for one build tree; returns run errors."""
    os.makedirs(out_dir, exist_ok=True)
    present = bench_names(build)
    plan = [entry for entry in runs(names) if entry[0] in present]
    with concurrent.futures.ThreadPoolExecutor(max_workers=JOBS) as pool:
        futures = [pool.submit(run_one, build, out_dir, *entry)
                   for entry in plan]
        return [f.result() for f in futures if f.result() is not None]


def self_test():
    with tempfile.TemporaryDirectory() as tmp:
        base = os.path.join(tmp, "base")
        head = os.path.join(tmp, "head")
        for tree in (base, head):
            os.makedirs(tree)
            for name, body in (("a.bench.json", b'{"x": 1}\n'),
                               ("b.events.jsonl", b'{"t": 0.5}\n')):
                with open(os.path.join(tree, name), "wb") as handle:
                    handle.write(body)
        if compare(digests(base), digests(head)):
            print("self-test FAILED: identical trees reported different")
            return 1
        with open(os.path.join(head, "a.bench.json"), "wb") as handle:
            handle.write(b'{"x": 2}\n')  # one byte flipped
        problems = compare(digests(base), digests(head))
        if len(problems) != 1 or not problems[0].startswith("a.bench.json"):
            print(f"self-test FAILED: one-byte difference gave {problems}")
            return 1
        os.remove(os.path.join(base, "b.events.jsonl"))
        problems = compare(digests(base), digests(head))
        if not any(p.startswith("b.events.jsonl: only in HEAD")
                   for p in problems):
            print(f"self-test FAILED: missing file gave {problems}")
            return 1
    print("self-test passed: a one-byte difference and a missing file "
          "are both reported")
    return 0


def main(argv):
    parser = argparse.ArgumentParser(
        description=__doc__.splitlines()[0],
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("base", nargs="?", help="baseline build tree")
    parser.add_argument("head", nargs="?", help="build tree under test")
    parser.add_argument("--self-test", action="store_true",
                        help="prove the comparison fires, then exit")
    args = parser.parse_args(argv)
    if args.self_test:
        return self_test()
    if not args.base or not args.head:
        parser.print_usage()
        return 2

    names = bench_names(args.base) | bench_names(args.head)
    if not names:
        print("no bench_* binaries found in either build tree")
        return 2
    out = os.path.join(args.head, "bench-identity")
    shutil.rmtree(out, ignore_errors=True)
    errors = []
    trees = {}
    for label, build in (("base", args.base), ("head", args.head)):
        out_dir = os.path.join(out, label)
        errors += produce(build, out_dir, names)
        trees[label] = digests(out_dir)
    problems = compare(trees["base"], trees["head"])
    for error in errors:
        print(f"run failed: {error}")
    for problem in problems:
        print(problem)
    print(f"{len(trees['head'])} outputs compared, {len(problems)} "
          f"differ, {len(errors)} runs failed")
    if problems or errors:
        print(f"outputs kept in {out}/{{base,head}}")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

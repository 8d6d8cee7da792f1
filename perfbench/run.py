#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

Run it from the root of a checkout.  It builds perfbench/bench.exe from
source with dune (build directory .bench_build), runs it, and passes its
output through: the last line of stdout is the JSON result.  The traced
run (--trace 1) also writes its spans as a Chrome trace to
.bench_build/perfbench/trace-<workload>-<seed>.json.
"""

import argparse
import json
import os
import subprocess
import sys

WORKLOADS = ["read-mostly", "write-heavy", "long-txn", "mixed-open"]
DEFAULT_SEED = 1  # the seed claims are made on; confirm them on seed 2
BUILD_DIR = ".bench_build"
# A run measures for --seconds after a few seconds of set-up; one that
# takes this much longer is stuck.
RUN_SLACK_S = 60
EXE = os.path.join(BUILD_DIR, "default", "perfbench", "bench.exe")
# The program the benchmark measures, and the benchmark's own package.
SOURCES = ["dune-project", "lib/serve/server.ml", "perfbench/dune-project",
           "BENCHMARK.json"]


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    missing = [p for p in SOURCES if not os.path.isfile(p)]
    if missing:
        print("perfbench: run from the root of a checkout; missing "
              + ", ".join(missing), file=sys.stderr)
        return 2

    build = subprocess.run(
        ["dune", "build", "--root", ".", "--build-dir", BUILD_DIR,
         "--profile", "release", "./perfbench/bench.exe"],
        stdout=sys.stderr)
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 1

    cmd = [EXE, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace == 1:
        out_dir = os.path.join(BUILD_DIR, "perfbench")
        os.makedirs(out_dir, exist_ok=True)
        cmd += ["--trace-out", os.path.join(
            out_dir, "trace-%s-%d.json" % (args.workload, args.seed))]
    try:
        run = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                             timeout=args.seconds + RUN_SLACK_S)
    except subprocess.TimeoutExpired:
        print("perfbench: bench.exe timed out", file=sys.stderr)
        return 1
    sys.stdout.write(run.stdout)
    sys.stdout.flush()
    lines = run.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        print("perfbench: no result line", file=sys.stderr)
        return 1
    if run.returncode != 0 or not result.get("correct"):
        return run.returncode or 1
    return check_metrics(result, "per_layer" if args.trace else "end_to_end")


def check_metrics(result, kind):
    """The printed metrics must be exactly those BENCHMARK.json declares."""
    with open("BENCHMARK.json") as f:
        declared = {m["name"]: m["unit"] for m in json.load(f)[kind]}
    printed = {k: v["unit"] for k, v in result["metrics"].items()}
    if printed != declared:
        print("perfbench: printed metrics differ from BENCHMARK.json %s: "
              "missing %s, extra %s, unit changes %s" % (
                  kind, sorted(set(declared) - set(printed)),
                  sorted(set(printed) - set(declared)),
                  sorted(k for k in printed
                         if k in declared and printed[k] != declared[k])),
              file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())

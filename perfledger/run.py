#!/usr/bin/env python3
"""Build the performance ledger from this checkout and run one workload.

    python3 perfledger/run.py --workload sim-lazy-open --seed 7 \
        --seconds 10 --trace 0

The first call configures and builds perfledger/ (the repository's
src/ and bench/ harness included) in Release mode under .bench_build/;
later calls rebuild only what changed. The binary then runs the
workload: --trace 0 prints the end-to-end metrics, --trace 1 the
per-layer ledger. Either way the run's output is checked against the
sim oracle, and the last line of stdout is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

The exit code is 0 only when the build succeeded, the output check
passed and that line is well formed. Build logs and the binary's
progress notes go to stderr. See perfledger/NOTES.md.
"""

import argparse
import json
import os
import subprocess
import sys

PKG = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(PKG)
BUILD = os.path.join(ROOT, ".bench_build", "perfledger")
BINARY = os.path.join(BUILD, "perfledger")
WORKLOADS = (
    "sim-lazy-open",
    "threads-lazy-open",
    "sim-eager-closed-wal",
    "proc-lazy-unbatched",
)
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}
# Every workload uses at most this many threads or processes; the build
# is held to the same.
JOBS = str(max(1, min(4, os.cpu_count() or 1)))


def build():
    """Configures (once) and builds the binary; False on any failure."""
    steps = []
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", PKG, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "-j", JOBS])
    for cmd in steps:
        try:
            done = subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr,
                                  stderr=sys.stderr, timeout=850)
        except (OSError, subprocess.TimeoutExpired) as err:
            print(f"perfledger: {' '.join(cmd)}: {err}", file=sys.stderr)
            return False
        if done.returncode != 0:
            print(f"perfledger: build step failed: {' '.join(cmd)}",
                  file=sys.stderr)
            return False
    return os.access(BINARY, os.X_OK)


def well_formed(line):
    try:
        result = json.loads(line)
    except ValueError:
        return False
    return (isinstance(result, dict) and set(result) == RESULT_KEYS and
            isinstance(result["metrics"], dict) and result["metrics"] and
            all(set(m) == {"value", "unit"}
                for m in result["metrics"].values()))


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()
    if args.seed < 0 or not 1 <= args.seconds <= 60:
        parser.error("--seed must be >= 0 and --seconds in 1..60")

    if not build():
        return 1
    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    try:
        done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                              stderr=sys.stderr, timeout=170)
    except subprocess.TimeoutExpired:
        print("perfledger: run timed out", file=sys.stderr)
        return 1
    lines = done.stdout.decode(errors="replace").strip().splitlines()
    if not lines or not well_formed(lines[-1]):
        print("perfledger: no well-formed result line", file=sys.stderr)
        return 1
    print("\n".join(lines))
    return 0 if done.returncode == 0 else 1


if __name__ == "__main__":
    sys.exit(main())

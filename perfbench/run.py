#!/usr/bin/env python3
"""Builds the benchmark driver if needed, then runs one workload.

    python3 perfbench/run.py --workload design --seed 1 --seconds 20 --trace 0

Run from the repository root. The build goes to perfbench/build and the run
outputs (the trace of a --trace 1 run, the run ledger) to perfbench/out.
Build logs go to stderr; stdout is the driver's own: its last line is the
result object described in perfbench/README.md. Exits non-zero without a
result when the build or the run fails.
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
BUILD = os.path.join(HERE, "build")
OUT = os.path.join(HERE, "out")
DRIVER = os.path.join(BUILD, "orp_perfbench")
WORKLOADS = ("design", "replica", "evaluate", "faults")
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def build():
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = [["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"],
             ["cmake", "--build", BUILD, "--target", "orp_perfbench", "-j", jobs]]
    if os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        steps = steps[1:]
    for step in steps:
        done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr,
                              timeout=BUILD_TIMEOUT_S, check=False)
        if done.returncode != 0:
            return False
    return True


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")

    if not build():
        print("perfbench: build failed", file=sys.stderr)
        return 1
    os.makedirs(OUT, exist_ok=True)
    env = dict(os.environ)
    env.pop("ORP_OBS_OUT", None)  # no stray trace sink from the caller
    env["ORP_RUN_LEDGER"] = os.path.join(OUT, "runs.jsonl")
    command = [DRIVER, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--out-dir", OUT]
    try:
        done = subprocess.run(command, env=env, timeout=RUN_TIMEOUT_S, check=False)
    except subprocess.TimeoutExpired:
        print("perfbench: run timed out", file=sys.stderr)
        return 1
    return done.returncode


if __name__ == "__main__":
    sys.exit(main())

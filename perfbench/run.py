#!/usr/bin/env python3
"""Build and run the repository benchmark.

Run from the root of a checkout:

    python3 perfbench/run.py --workload read-zipf --seed 1 --seconds 10 --trace 0

The first call configures and builds perfbench/ (and the library it links,
from the checkout's sources) under $CARGO_TARGET_DIR/perfbench, or
.bench_build/perfbench when that is unset; later calls rebuild only what
changed. Build output goes to stderr, so the last line of standard output
is always the benchmark's JSON result.

--workload all runs every workload in turn and prints one combined JSON
line whose metric names are prefixed with the workload name.
"""

import argparse
import json
import os
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
# write-mixed is not in BENCHMARK.json (see README.md); "all" still runs it.
WORKLOADS = ["read-zipf", "read-cold", "write-phased", "write-mixed"]
RUN_TIMEOUT_S = 175


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(base, "perfbench")


def build():
    out = build_dir()
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", BENCH_DIR, "-B", out,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", out, "-j", jobs, "--target", "perfbench"])
    for step in steps:
        result = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr)
        if result.returncode != 0:
            print("perfbench: build failed: " + " ".join(step), file=sys.stderr)
            return None
    return os.path.join(out, "perfbench")


def run_one(binary, workload, args, extra, capture):
    cmd = [binary, "--workload", workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)] + extra
    try:
        result = subprocess.run(cmd, stdout=subprocess.PIPE if capture else None,
                                timeout=RUN_TIMEOUT_S, text=True)
    except subprocess.TimeoutExpired:
        print("perfbench: %s timed out" % workload, file=sys.stderr)
        return 1, None
    return result.returncode, result.stdout


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--inject", choices=["wrong-answer", "drop-wal"])
    parser.add_argument("--digest-only", action="store_true")
    args = parser.parse_args()

    binary = build()
    if binary is None:
        return 1
    extra = []
    if args.inject:
        extra += ["--inject", args.inject]
    if args.digest_only:
        extra += ["--digest-only"]

    if args.workload != "all":
        code, _ = run_one(binary, args.workload, args, extra, capture=False)
        return code

    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    exit_code = 0
    for workload in WORKLOADS:
        code, stdout = run_one(binary, workload, args, extra, capture=True)
        lines = (stdout or "").strip().splitlines()
        if args.digest_only:
            print("\n".join(lines))
            exit_code = exit_code or code
            continue
        for line in lines[:-1]:
            print(line)
        try:
            result = json.loads(lines[-1])
        except (IndexError, ValueError):
            return code or 1
        exit_code = exit_code or code
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for name, metric in result["metrics"].items():
            combined["metrics"][workload + "." + name] = metric
    if not args.digest_only:
        print(json.dumps(combined))
    return exit_code


if __name__ == "__main__":
    sys.exit(main())

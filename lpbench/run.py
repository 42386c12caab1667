#!/usr/bin/env python3
"""Builds lpbench from the checkout's sources and runs one workload.

    python3 lpbench/run.py --workload serve --seed 1 --seconds 10 --trace 0

Run from anywhere; the build goes to .bench_build/lpbench at the root of the
checkout.  --workload all runs every workload in its own process (so peak
RSS is per workload) and ends with one combined JSON line whose metric names
are prefixed with the workload.  The last stdout line is always the result
JSON; build output goes to stderr.  --trace 1 also writes the Chrome trace
to .bench_build/lpbench/trace_<workload>.json.
"""
import argparse
import json
import os
import shutil
import subprocess
import sys

WORKLOADS = ["serve", "cluster", "train_gray", "control_plane"]
HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "lpbench")
BINARY = os.path.join(BUILD, "lpbench")


def build():
    """Configures (once) and builds lpbench; returns False on failure."""
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", BUILD]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        if subprocess.run(configure, stdout=sys.stderr, timeout=300).returncode != 0:
            return False
    steps = ["cmake", "--build", BUILD, "--target", "lpbench", "-j", "2"]
    return subprocess.run(steps, stdout=sys.stderr, timeout=850).returncode == 0


def run_one(workload, seed, seconds, trace):
    """Runs one workload; returns (exit code, stdout)."""
    cmd = [BINARY, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    if trace:
        cmd += ["--trace-out", os.path.join(BUILD, "trace_%s.json" % workload)]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=175)
    return proc.returncode, proc.stdout


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()

    if not build():
        print("lpbench: build failed", file=sys.stderr)
        return 1
    if args.workload != "all":
        code, out = run_one(args.workload, args.seed, args.seconds, args.trace)
        sys.stdout.write(out)
        return code

    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    status = 0
    for workload in WORKLOADS:
        code, out = run_one(workload, args.seed, args.seconds, args.trace)
        lines = out.splitlines()
        sys.stdout.write("\n".join(lines[:-1]) + "\n")
        if code != 0 or not lines:
            status = 1
            combined["correct"] = False
            continue
        result = json.loads(lines[-1])
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for name, metric in result["metrics"].items():
            combined["metrics"][workload + "." + name] = metric
    print(json.dumps(combined))
    return status


if __name__ == "__main__":
    sys.exit(main())

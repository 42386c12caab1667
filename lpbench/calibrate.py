#!/usr/bin/env python3
"""Measures lpbench's run-to-run noise and records the ledger baseline.

    python3 lpbench/calibrate.py [--seeds 1-10] [--workloads serve,cluster]
                                 [--trace 0|1] [--write lpbench/baseline.json]

Runs BENCHMARK.json's command once per (workload, seed), checks that every
run is correct and prints exactly the metrics BENCHMARK.json lists, then
prints each metric's median and quartiles over the seeds with its spread
(q3 - q1) / median beside the metric's bound.  A spread above a third of the
bound is flagged: the run length or the metric needs work.  --write stores
the medians and quartiles as the committed baseline.
"""
import argparse
import json
import os
import platform
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def cpu_model():
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.machine()


def parse_seeds(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--workloads", default="")
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--write", default="")
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    metrics = bench["per_layer"] if args.trace else bench["end_to_end"]
    expected = {m["name"]: m["unit"] for m in metrics}
    bounds = {m["name"]: m.get("bound") for m in metrics}
    workloads = args.workloads.split(",") if args.workloads else [
        w["name"] for w in bench["workloads"]]

    ok = True
    baseline = {}
    for workload in workloads:
        values = {name: [] for name in expected}
        for seed in parse_seeds(args.seeds):
            cmd = bench["command"] + ["--workload", workload, "--seed", str(seed),
                                      "--seconds", str(bench["run_seconds"]),
                                      "--trace", str(args.trace)]
            proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
            lines = proc.stdout.splitlines()
            if not lines:
                print("FAIL %s seed %d: exit %d, no output" % (workload, seed,
                                                              proc.returncode))
                return 1
            result = json.loads(lines[-1])
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            if proc.returncode != 0 or not result["correct"] or result["failed"] != 0:
                print("FAIL %s seed %d: exit %d, %s" % (workload, seed, proc.returncode,
                                                       json.dumps(result)[:200]))
                ok = False
            if got != expected:
                print("FAIL %s seed %d: metrics differ from BENCHMARK.json" % (workload, seed))
                ok = False
            for name in expected:
                values[name].append(result["metrics"][name]["value"])

        print("\n%s (%d seeds)" % (workload, len(parse_seeds(args.seeds))))
        baseline[workload] = {}
        for name, xs in values.items():
            q1, median, q3 = statistics.quantiles(xs, n=4)
            spread = (q3 - q1) / median if median else 0.0
            bound = bounds[name]
            flag = ""
            if bound is not None and name != "setup_s" and spread > bound / 3:
                flag = "  <-- spread above bound/3"
            print("  %-32s median %-12.6g q1 %-12.6g q3 %-12.6g spread %6.3f%s%s" % (
                name, median, q1, q3, spread,
                "" if bound is None else "  bound %.2f" % bound, flag))
            print("    per seed: " + " ".join("%.6g" % x for x in xs))
            baseline[workload][name] = {"unit": expected[name], "median": median,
                                        "q1": q1, "q3": q3, "n": len(xs)}

    if args.write:
        record = {"host": {"cpu": cpu_model(), "nproc": os.cpu_count()},
                  "seeds": args.seeds, "run_seconds": bench["run_seconds"],
                  "trace": args.trace, "workloads": baseline}
        with open(args.write, "w") as f:
            json.dump(record, f, indent=1, sort_keys=True)
            f.write("\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())

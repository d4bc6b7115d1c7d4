#!/usr/bin/env python3
"""Runs one workload n times with seeds 1..n and prints each metric's spread.

    python3 teambench/spread.py --workload find-ci --runs 10

Each run is untraced and measures for BENCHMARK.json's run_seconds.

For every metric it prints the median, the first and third quartiles
(statistics.quantiles(values, n=4)), and the interquartile range as a share
of the median — the figure each end-to-end bound in BENCHMARK.json is set
against. It also prints each run's attempted, failed and metric values.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--runs", type=int, default=10)
    args = parser.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        seconds = json.load(f)["run_seconds"]

    values = {}
    units = {}
    for seed in range(1, args.runs + 1):
        done = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"), "--workload",
             args.workload, "--seed", str(seed), "--seconds", str(seconds),
             "--trace", "0"],
            cwd=ROOT, stdout=subprocess.PIPE, text=True)
        lines = done.stdout.strip().splitlines()
        if done.returncode != 0 or not lines:
            sys.exit("run with seed %d failed (exit %d)" % (seed, done.returncode))
        result = json.loads(lines[-1])
        print("seed %d: correct=%s attempted=%d failed=%d (%.4f%%) %s" % (
            seed, result["correct"], result["attempted"], result["failed"],
            100.0 * result["failed"] / result["attempted"],
            " ".join("%s=%.4g" % (name, m["value"])
                     for name, m in result["metrics"].items())), flush=True)
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
            units[name] = metric["unit"]

    print("%-30s %12s %12s %12s %9s  %s" % ("metric", "median", "q1", "q3",
                                             "iqr/med", "unit"))
    for name, vals in values.items():
        med = statistics.median(vals)
        if len(vals) >= 2:
            q1, _, q3 = statistics.quantiles(vals, n=4)
        else:
            q1 = q3 = vals[0]
        share = (q3 - q1) / med if med else float("nan")
        print("%-30s %12.4f %12.4f %12.4f %8.1f%%  %s" % (
            name, med, q1, q3, 100.0 * share, units[name]))


if __name__ == "__main__":
    main()

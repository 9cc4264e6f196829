#!/usr/bin/env python3
"""Run-to-run spread of the end-to-end metrics.

Usage, from the root of a checkout:

    python3 perfbench/steadiness.py [--runs 10] [--first-seed 1]
                                    [--seconds 20] [workload ...]

Runs perfbench/run.py --trace 0 once per seed (first-seed, first-seed+1,
...) on each workload (all three by default). It prints every run's
end-to-end metrics, then for each metric the median and the spread: the
distance between the first and third quartile of the runs
(statistics.quantiles(values, n=4)) as a share of the median. Each run's
row also shows the host record the driver writes to stderr: the load
average at the start and end of the run and the stream-triad bandwidth.
Compare the spread with the metric's bound in BENCHMARK.json. Exits
non-zero when a run fails or reports failed ops.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

WORKLOADS = ("grid-paper", "serve-mix", "net-replay")
METRICS = ("setup_s", "ops_per_s", "p50_ms", "peak_rss_mb")
HOST = ("load1_start", "load1_end", "triad_gbps")
HOST_PREFIX = "perfbench: host "


def run_once(workload, seed, seconds):
    run_py = os.path.join(os.path.dirname(os.path.abspath(__file__)), "run.py")
    done = subprocess.run(
        [sys.executable, run_py, "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        check=True)
    host = {}
    for line in done.stderr.splitlines():
        if line.startswith(HOST_PREFIX):
            host = json.loads(line[len(HOST_PREFIX):])
        elif line.startswith("perfbench: FAILED"):
            print(line, flush=True)
    return json.loads(done.stdout.strip().splitlines()[-1]), host


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("workloads", nargs="*", default=list(WORKLOADS))
    args = parser.parse_args()

    ok = True
    for workload in args.workloads:
        values = {name: [] for name in METRICS}
        print("## %s" % workload)
        print("seed  " + "  ".join("%14s" % name for name in METRICS) +
              "  " + "  ".join("%11s" % name for name in HOST))
        for seed in range(args.first_seed, args.first_seed + args.runs):
            result, host = run_once(workload, seed, args.seconds)
            ok = ok and result["correct"] and result["failed"] == 0
            row = []
            for name in METRICS:
                value = result["metrics"][name]["value"]
                values[name].append(value)
                row.append("%14.6g" % value)
            print("%4d  %s  %s  (%d/%d failed)" %
                  (seed, "  ".join(row),
                   "  ".join("%11.3f" % host.get(name, float("nan"))
                             for name in HOST),
                   result["failed"], result["attempted"]),
                  flush=True)
        for name in METRICS:
            q1, q2, q3 = statistics.quantiles(values[name], n=4)
            print("%-12s median %-12.6g spread %.4f" %
                  (name, q2, (q3 - q1) / q2))
        print()
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()

#!/usr/bin/env python3
"""Steadiness check: run one workload N times and summarise each metric.

Usage (from the root of a checkout):

    python3 perfbench/steady.py --workload <name> [--runs 10] [--first-seed 1]
                                [--seconds 10] [--trace 0] [--raw]

Runs perfbench/run.py once per seed (first-seed, first-seed + 1, ...) and
prints, per metric, the median, the quartiles (statistics.quantiles with
n=4) and the spread (q3 - q1) / median next to the metric's bound from
BENCHMARK.json, plus the share of failed operations in every run. This is
the evidence for the bounds in BENCHMARK.json: every spread except
setup_s's should stay below a third of its bound.
"""
import argparse
import json
import statistics
import subprocess
import sys


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=None)
    parser.add_argument("--trace", choices=("0", "1"), default="0")
    parser.add_argument("--raw", action="store_true",
                        help="also print every run's value")
    args = parser.parse_args()

    with open("BENCHMARK.json") as handle:
        bench = json.load(handle)
    seconds = args.seconds or bench["run_seconds"]
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}

    values = {}
    units = {}
    shares = []
    for seed in range(args.first_seed, args.first_seed + args.runs):
        command = [sys.executable, "perfbench/run.py", "--workload",
                   args.workload, "--seed", str(seed), "--seconds",
                   str(seconds), "--trace", args.trace]
        out = subprocess.run(command, capture_output=True, text=True)
        lines = out.stdout.strip().splitlines()
        if out.returncode != 0 or not lines:
            sys.stderr.write(out.stderr)
            sys.exit("run with seed %d failed (exit %d)" % (seed,
                                                             out.returncode))
        result = json.loads(lines[-1])
        shares.append("%d/%d" % (result["failed"], result["attempted"]))
        if not result["correct"]:
            sys.stderr.write(out.stderr)
            print("seed %d: correct=false" % seed)
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
            units[name] = metric["unit"]
        print("seed %d done: failed/attempted %s" % (seed, shares[-1]),
              flush=True)

    print("\n%-34s %12s %12s %12s %8s %8s" %
          ("metric", "median", "q1", "q3", "spread", "bound"))
    for name in sorted(values):
        series = values[name]
        median = statistics.median(series)
        q1, _, q3 = (statistics.quantiles(series, n=4) if len(series) > 1
                     else (series[0], series[0], series[0]))
        spread = (q3 - q1) / median if median else float("nan")
        bound = bounds.get(name)
        print("%-34s %12.6g %12.6g %12.6g %8.4f %8s  %s" %
              (name, median, q1, q3, spread,
               "" if bound is None else bound, units[name]))
        if args.raw:
            print("    " + " ".join("%.6g" % v for v in series))
    print("\nfailed/attempted per run: %s" % " ".join(shares))


if __name__ == "__main__":
    main()

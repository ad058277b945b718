#!/usr/bin/env python3
"""Run-to-run spread of the end-to-end metrics over several seeds.

    python3 perfbench/spread.py --workload churn_stream --seeds 1-10

Runs the benchmark once per seed (untraced, BENCHMARK.json's run_seconds)
and prints, per end-to-end metric, the median, the quartile spread
(Q3 - Q1) / median as statistics.quantiles(values, n=4) gives it, the
metric's bound, and whether the spread is within a third of that bound.
Exits 1 if any run fails or reports correct = false.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def seeds(spec):
    lo, _, hi = spec.partition("-")
    return range(int(lo), int(hi or lo) + 1)


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1-10", help="e.g. 1-10 or 7")
    args = parser.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)

    values = {m["name"]: [] for m in bench["end_to_end"]}
    for seed in seeds(args.seeds):
        command = bench["command"] + [
            "--workload", args.workload, "--seed", str(seed),
            "--seconds", str(bench["run_seconds"]), "--trace", "0"]
        out = subprocess.run(command, cwd=ROOT, capture_output=True,
                             text=True)
        lines = out.stdout.strip().splitlines()
        if out.returncode != 0 or not lines:
            sys.exit("seed %d: exit %d\n%s" % (seed, out.returncode,
                                               out.stderr[-2000:]))
        result = json.loads(lines[-1])
        if not result["correct"]:
            sys.exit("seed %d: correct = false\n%s" % (seed, out.stdout))
        for name, metric in result["metrics"].items():
            values[name].append(metric["value"])
        print("seed %d: %s" % (seed, " ".join(
            "%s=%.6g" % (k, v["value"]) for k, v in result["metrics"].items())),
            flush=True)

    print("%-18s %14s %8s %6s" % ("metric", "median", "spread", "bound"))
    for m in bench["end_to_end"]:
        v = values[m["name"]]
        q1, med, q3 = statistics.quantiles(v, n=4)
        spread = (q3 - q1) / med if med else float("inf")
        verdict = "ok" if spread <= m["bound"] / 3 else (
            "over 1/3 bound" if spread <= m["bound"] else "OVER BOUND")
        print("%-18s %14.6g %8.4f %6.2f  %s" % (m["name"], med, spread,
                                               m["bound"], verdict))


if __name__ == "__main__":
    main()

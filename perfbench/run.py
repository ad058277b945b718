#!/usr/bin/env python3
"""Builds and runs the request-path benchmark from a checkout's root.

    python3 perfbench/run.py --workload cold_solve --seed 1 --seconds 20 \
        --trace 0

Workloads: cold_solve, hot_cache, churn_stream, faulty_dist.  The library
and request_path.cpp are compiled from source (Release) into .bench_build/
at the checkout root; later runs rebuild only what changed.  The program's
stdout is passed through, so the last line is the result JSON.  With
--trace 1 the recorded spans are also written to
.bench_build/spans/<workload>-seed<seed>.json (Chrome trace format).
--toy shrinks every input (used by perfbench/selftest.py).
"""
import argparse
import fcntl
import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
BINARY = os.path.join(BUILD, "request_path")
WORKLOADS = ("cold_solve", "hot_cache", "churn_stream", "faulty_dist")
RUN_TIMEOUT_S = 170


def build():
    """Configures once, then builds incrementally; build output goes to
    stderr so stdout carries only the benchmark's report."""
    os.makedirs(BUILD, exist_ok=True)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    # Serialize concurrent runs in one checkout around the build.
    with open(os.path.join(BUILD, ".lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        steps = []
        if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
            steps.append(["cmake", "-S", HERE, "-B", BUILD,
                          "-DCMAKE_BUILD_TYPE=Release"])
        steps.append(["cmake", "--build", BUILD, "--target", "request_path",
                      "-j", jobs])
        for step in steps:
            done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr)
            if done.returncode != 0:
                sys.exit("perfbench: build step failed: " + " ".join(step))


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--toy", action="store_true")
    args = parser.parse_args()
    # Turn SIGTERM into SystemExit so no build or benchmark child outlives us.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    build()
    command = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.toy:
        command.append("--toy")
    if args.trace:
        spans = os.path.join(BUILD, "spans")
        os.makedirs(spans, exist_ok=True)
        command += ["--spans-out", os.path.join(
            spans, "%s-seed%d.json" % (args.workload, args.seed))]
    sys.stdout.flush()
    child = subprocess.Popen(command, cwd=ROOT)
    try:
        code = child.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.exit("perfbench: %s did not finish in %d s"
                 % (args.workload, RUN_TIMEOUT_S))
    finally:
        if child.poll() is None:
            child.kill()
            child.wait()
    sys.exit(code)


if __name__ == "__main__":
    main()

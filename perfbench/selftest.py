#!/usr/bin/env python3
"""Self-test of the request-path benchmark at toy sizes (about a minute).

    python3 perfbench/selftest.py

For every workload in BENCHMARK.json it checks that:
  * an untraced run prints, as its last line, the result object with
    exactly the end-to-end metrics and units BENCHMARK.json names, with
    correct = true and failed = 0;
  * a traced run prints exactly the per-layer metrics and units, that every
    layer the workload calls reports a non-zero figure, and that two traced
    runs with one seed give identical host-independent counts;
and that the benchmark refuses to run, printing no result, in a directory
that holds only BENCHMARK.json and the benchmark's own files.
"""
import json
import os
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SEED = 7

# Per-layer metrics that must be non-zero where the workload calls the
# layer; every other per-layer metric of the workload must read 0.
CALLED = {
    "cold_solve": [
        "graph.find_center.us", "graph.find_center.bfs_runs",
        "graph.find_center.ns_per_edge_visit", "tree.bfs_tree.us",
        "tree.labeling.us", "gossip.run_algorithm.us",
        "gossip.run_algorithm.ns_per_tx", "gossip.transmissions",
        "model.validate.us", "model.validate.ns_per_delivery",
        "model.deliveries", "sim.simulate.us", "sim.simulate.ns_per_delivery",
        "engine.fingerprint.us", "engine.fingerprint.ns_per_adjacency",
        "engine.miss.us"],
    "hot_cache": [
        "engine.fingerprint.us", "engine.fingerprint.ns_per_adjacency",
        "engine.hit.us", "engine.hit_frac"],
    "churn_stream": [
        "graph.snapshot.us", "tree.labeling.us", "tree.retree.us",
        "tree.retree.bfs_runs", "tree.retree.full_rebuild_frac",
        "gossip.run_algorithm.us", "gossip.run_algorithm.ns_per_tx",
        "gossip.transmissions", "gossip.patch_schedule.us",
        "gossip.patch_schedule.kept_frac", "engine.fingerprint.us",
        "engine.fingerprint.ns_per_adjacency", "engine.invalidations",
        "churn.apply_event.us", "churn.patched_frac", "churn.resolved_frac"],
    "faulty_dist": [
        "graph.find_center.us", "graph.find_center.bfs_runs",
        "graph.find_center.ns_per_edge_visit", "tree.bfs_tree.us",
        "tree.labeling.us", "gossip.run_algorithm.us",
        "gossip.run_algorithm.ns_per_tx", "gossip.transmissions",
        "model.validate.us", "model.validate.ns_per_delivery",
        "model.deliveries", "dist.run.us", "dist.run.ns_per_delivery",
        "dist.deliveries", "dist.control_messages", "dist.recovery_rounds",
        "dist.central_solve.us", "dist.verify.us", "fault.injected_drops",
        "fault.skipped_sends"],
}
ALWAYS = ["trace.unattributed_frac"]  # trace.overhead_frac may be 0 or < 0
TIMED_UNITS = ("us", "ns")
TIMING_BASED = ("trace.overhead_frac", "trace.unattributed_frac")

failures = []


def check(ok, what):
    if not ok:
        failures.append(what)
        print("FAIL:", what, flush=True)


def run(bench, workload, trace, cwd=ROOT):
    command = bench["command"] + [
        "--workload", workload, "--seed", str(SEED), "--seconds", "1",
        "--trace", str(trace), "--toy"]
    return subprocess.run(command, cwd=cwd, capture_output=True, text=True,
                          timeout=600)


def result_of(out, label):
    lines = out.stdout.strip().splitlines()
    check(out.returncode == 0 and lines,
          "%s: exit %d" % (label, out.returncode))
    if out.returncode != 0 or not lines:
        sys.stderr.write(out.stderr[-3000:])
        return None
    result = json.loads(lines[-1])
    check(set(result) == {"correct", "attempted", "failed", "metrics"},
          "%s: result keys %s" % (label, sorted(result)))
    check(result["correct"] is True, label + ": correct is not true")
    check(result["failed"] == 0 and result["attempted"] >= 1,
          "%s: attempted %s failed %s" % (label, result["attempted"],
                                          result["failed"]))
    return result


def check_metrics(result, declared, label):
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    want = {m["name"]: m["unit"] for m in declared}
    check(got == want, "%s: metric names/units differ: missing %s, extra %s"
          % (label, sorted(set(want) - set(got)), sorted(set(got) - set(want))))


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    for w in bench["workloads"]:
        name = w["name"]
        print("workload", name, flush=True)
        plain = result_of(run(bench, name, 0), name + " trace 0")
        if plain:
            check_metrics(plain, bench["end_to_end"], name + " trace 0")
            for metric, v in plain["metrics"].items():
                check(v["value"] > 0, "%s: %s is not > 0" % (name, metric))
        first = result_of(run(bench, name, 1), name + " trace 1")
        second = result_of(run(bench, name, 1), name + " trace 1 again")
        if not (first and second):
            continue
        check_metrics(first, bench["per_layer"], name + " trace 1")
        for metric, v in first["metrics"].items():
            called = metric in CALLED[name] or metric in ALWAYS
            if called:
                check(v["value"] > 0, "%s: %s is 0" % (name, metric))
            elif metric not in TIMING_BASED:
                check(v["value"] == 0, "%s: %s = %s but the workload does not "
                      "call that layer" % (name, metric, v["value"]))
            if v["unit"] not in TIMED_UNITS and metric not in TIMING_BASED:
                check(v["value"] == second["metrics"][metric]["value"],
                      "%s: count %s does not repeat for seed %d (%s vs %s)"
                      % (name, metric, SEED, v["value"],
                         second["metrics"][metric]["value"]))

    # Without the library sources the benchmark must fail, printing nothing.
    bare = os.path.join(ROOT, ".bench_build", "selftest-bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    for path in bench["paths"]:
        shutil.copytree(os.path.join(ROOT, path), os.path.join(bare, path))
    out = run(bench, bench["workloads"][0]["name"], 0, cwd=bare)
    check(out.returncode != 0, "bare directory: exit code 0")
    check(not out.stdout.strip().endswith("}"),
          "bare directory: printed a result")
    shutil.rmtree(bare, ignore_errors=True)

    print("selftest:", "FAILED (%d)" % len(failures) if failures else "ok")
    sys.exit(1 if failures else 0)


if __name__ == "__main__":
    main()

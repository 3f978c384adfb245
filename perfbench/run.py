#!/usr/bin/env python3
"""The repo benchmark: builds perfbench/ and runs its workloads.

    python3 perfbench/run.py                       # every workload, both runs
    python3 perfbench/run.py --workload hot_zipf --seed 7 --seconds 10 --trace 0

Each workload runs in its own process (perfbench/src, built into
.bench_build/ at the repository root).  --trace 0 prints the end-to-end
metrics of one untraced run; --trace 1 runs the workload untraced and then
traced with the same seed and prints the per-layer metrics.  Every metric
is printed by name with its unit; the last line is one JSON object with the
keys correct, attempted, failed and metrics.  The exit code is 0 only when
every correctness check passed.  README.md describes the workloads, the
metrics and the checks.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
BINARY = os.path.join(BUILD, "twbg_perfbench")
WORKLOADS = ("daemon_tcp", "hot_zipf", "wide_uniform")


def log(*parts):
    print(*parts, file=sys.stderr, flush=True)


def build():
    """Configures (once) and builds the benchmark; False on failure."""
    steps = []
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "--target", "twbg_perfbench",
                  "-j", str(os.cpu_count() or 1)])
    for step in steps:
        # Build output goes to stderr: stdout ends with the result line.
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode:
            log("perfbench: build step failed:", " ".join(step))
            return False
    return True


def binary_digest():
    with open(BINARY, "rb") as f:
        return hashlib.sha256(f.read()).hexdigest()[:16]


def run_process(workload, seed, seconds, trace_path=None):
    """Runs one workload process; returns its report (a dict)."""
    cmd = [BINARY, workload, "--seed=%d" % seed, "--seconds=%g" % seconds]
    if trace_path:
        cmd.append("--trace=" + trace_path)
    # A traced invocation runs two of these; both must end well within the
    # three minutes a run may take.
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                          text=True, timeout=1.2 * seconds + 40)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError("%s exited with %d" % (workload, proc.returncode))
    return json.loads(lines[-1])


def compare_checkpoints(label, a, b, failures):
    """Counts after the same number of lock operations must match."""
    rows_a = {row[0]: row for row in a}
    common = [row for row in b if row[0] in rows_a]
    for row in common:
        if rows_a[row[0]] != row:
            failures.append(
                "%s: counts differ after %d operations: %s vs %s"
                % (label, row[0], rows_a[row[0]], row))
            return
    if not common:
        failures.append("%s: no common checkpoint to compare" % label)


def check_repeat(workload, seed, report, failures):
    """Compares the counts with an earlier run of this binary and seed."""
    store = os.path.join(BUILD, "counts")
    os.makedirs(store, exist_ok=True)
    path = os.path.join(store, "%s-%s-%d.json" % (binary_digest(), workload,
                                                  seed))
    rows = report["checkpoints"]
    if os.path.exists(path):
        with open(path) as f:
            earlier = json.load(f)
        compare_checkpoints("repeat of seed %d" % seed, earlier, rows, failures)
        if len(earlier) >= len(rows):
            return
    with open(path, "w") as f:
        json.dump(rows, f)


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def run(spec, workload, seed, seconds, trace):
    """One workload, untraced and (with `trace`) traced.

    Returns (end-to-end metrics, per-layer metrics or None, attempted,
    failed, failed checks).
    """
    failures = []
    untraced = run_process(workload, seed, seconds)
    reports = [untraced]
    if trace:
        os.makedirs(os.path.join(BUILD, "traces"), exist_ok=True)
        trace_path = os.path.join(BUILD, "traces", workload + ".tsv")
        traced = run_process(workload, seed, seconds, trace_path)
        reports.append(traced)
        log("perfbench: %s spans written to %s" % (workload, trace_path))
    for report in reports:
        failures += ["%s%s: %s" % (workload, " (traced)" if report["traced"]
                                   else "", what)
                     for what in report["failures"]]
    # Only the single-threaded workloads checkpoint their counts: their
    # call sequence, and so every count, follows from the seed.
    if untraced["checkpoints"]:
        check_repeat(workload, seed, untraced, failures)
        if trace:
            compare_checkpoints("traced vs untraced", untraced["checkpoints"],
                                traced["checkpoints"], failures)

    if trace:
        traced["metrics"]["trace.overhead_ratio"] = {
            "value": 1.0 - traced["metrics"]["commits_per_s"]["value"]
            / untraced["metrics"]["commits_per_s"]["value"],
            "unit": "ratio"}
    host = untraced["host"]
    print("host_cores=%d compiler=%s build_type=%s"
          % (host["host_cores"], host["compiler"].replace(" ", "_"),
             host["build_type"]))
    for report in reports:
        tag = "traced" if report["traced"] else "untraced"
        for name, m in report["metrics"].items():
            print("%-13s %-8s %-30s %16.6f %s"
                  % (workload, tag, name, m["value"], m["unit"]))
        for name, count in report["counts"].items():
            print("%-13s %-8s %-30s %16d count" % (workload, tag, name, count))

    def pick(chosen, source):
        # A layer the workload never reaches reads 0 (README.md).
        return {m["name"]: {"value": source.get(m["name"], {"value": 0.0})
                            ["value"], "unit": m["unit"]} for m in chosen}

    end_to_end = pick(spec["end_to_end"], untraced["metrics"])
    per_layer = pick(spec["per_layer"], traced["metrics"]) if trace else None
    attempted = sum(r["attempted"] for r in reports)
    failed = sum(r["failed"] for r in reports)
    return end_to_end, per_layer, attempted, failed, failures


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all",
                        choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float,
                        help="measured window (default: BENCHMARK.json's "
                        "run_seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="0: end-to-end metrics; 1: per-layer metrics "
                        "(--workload all always reports both)")
    args = parser.parse_args()
    if not build():
        return 2
    spec = load_spec()
    seconds = args.seconds or spec["run_seconds"]

    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    # --workload all reports both metric sets from one pair of runs.
    trace = 1 if args.workload == "all" else args.trace
    metrics, attempted, failed, failures = {}, 0, 0, []
    for workload in workloads:
        try:
            end_to_end, per_layer, a, f, why = run(spec, workload, args.seed,
                                                   seconds, trace)
        except (RuntimeError, subprocess.TimeoutExpired, ValueError) as e:
            log("perfbench: no result:", e)
            return 2
        if args.workload == "all":
            metrics.update({workload + "/" + k: v for k, v in
                            dict(end_to_end, **per_layer).items()})
        else:
            metrics.update(per_layer if trace else end_to_end)
        attempted, failed, failures = attempted + a, failed + f, failures + why
    for why in failures:
        print("CHECK FAILED:", why)
    print(json.dumps({"correct": not failures, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if not failures else 1


if __name__ == "__main__":
    sys.exit(main())

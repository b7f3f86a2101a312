#!/usr/bin/env python3
"""The repository benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --self-test

Run from the root of a checkout. Builds the library and the workload
runner from source (CMake, into $CARGO_TARGET_DIR or .bench_build), runs
one workload (see BENCHMARK.json for the list and why each was chosen)
and prints, as the last line of standard output, one JSON object:

    {"correct": true, "attempted": N, "failed": 0, "metrics": {...}}

With --trace 0 the metrics are the end-to-end metrics of BENCHMARK.json;
with --trace 1 the per-layer metrics of a separate traced run. The
runner's own files (a wsan-bench-report/1 container, and in the traced
run the per-layer ledger and the library's obs snapshot) land in
.bench_out/<workload>/. --self-test builds and runs the benchmark's own
tests. Exits non-zero when an output check fails or a workload misses
the code path it exists to measure.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def build(targets):
    """Configures once and builds `targets`; compiler output goes to stderr."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("no src/CMakeLists.txt next to perfbench/: not a repository checkout")
    build_root = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(ROOT, build_root, "perfbench")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", build_dir, "-j", jobs, "--target"]
                 + targets)
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode:
            fail("build failed: " + " ".join(step))
    return build_dir


def declared_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    key = "per_layer" if trace else "end_to_end"
    return {m["name"]: m["unit"] for m in spec[key]}, \
        [w["name"] for w in spec["workloads"]]


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()

    if args.self_test:
        build_dir = build(["perfbench_tests"])
        sys.exit(subprocess.run(
            [os.path.join(build_dir, "perfbench_tests")]).returncode)

    declared, workloads = declared_metrics(args.trace)
    if args.workload not in workloads:
        fail(f"unknown workload {args.workload!r}; one of {workloads}")
    build_dir = build(["perfbench"])

    out_dir = os.path.join(ROOT, ".bench_out", args.workload)
    os.makedirs(out_dir, exist_ok=True)
    result_path = os.path.join(out_dir, "result.json")
    if os.path.exists(result_path):
        os.remove(result_path)
    cmd = [os.path.join(build_dir, "perfbench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--out", out_dir]
    try:
        proc = subprocess.run(cmd, stdout=sys.stdout, stderr=sys.stderr,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"workload runner exceeded {RUN_TIMEOUT_S} s")
    if not os.path.isfile(result_path):
        fail(f"workload runner wrote no result (exit {proc.returncode})")
    with open(result_path) as f:
        result = json.load(f)

    correct = bool(result["correct"]) and proc.returncode == 0
    metrics = {name: {"value": m["value"], "unit": m["unit"]}
               for name, m in result["metrics"].items()}
    got = {name: m["unit"] for name, m in metrics.items()}
    if correct and got != declared:
        missing = sorted(set(declared) - set(got))
        extra = sorted(set(got) - set(declared))
        units = sorted(n for n in set(got) & set(declared)
                       if got[n] != declared[n])
        fail(f"metrics disagree with BENCHMARK.json: missing {missing}, "
             f"undeclared {extra}, unit mismatch {units}")
    if any(f.startswith("path guard") for f in result["failures"]):
        metrics = {}  # the workload missed its path: refuse to report
    sys.stdout.flush()
    print(json.dumps({"correct": correct,
                      "attempted": int(result["attempted"]),
                      "failed": int(result["failed"]),
                      "metrics": metrics}, separators=(",", ":")))
    sys.exit(0 if correct else 1)


if __name__ == "__main__":
    main()

#!/usr/bin/env python3
"""End-to-end benchmark of the bertprof CPU training and serving substrate.

Builds the benchmark package in this directory (which compiles the
library sources under ../src) with CMake, runs one workload, checks its
output against BENCHMARK.json, and prints as its last line one JSON
object with the keys correct, attempted, failed and metrics.

Usage, from the repository root:

  python3 e2ebench/run.py --workload pretrain --seed 1 --seconds 20 --trace 0
  python3 e2ebench/run.py --quick

--trace 0 prints the end-to-end metrics, --trace 1 the per-layer ones.
--quick is the smoke check: every workload at a tiny size, traced and
untraced, asserting every metric in BENCHMARK.json is printed with its
unit. Build output and scratch files go to .bench_build/e2ebench.
See e2ebench/README.md for the workloads and metrics.
"""

import argparse
import json
import math
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "e2ebench")
WORK_DIR = os.path.join(BUILD_DIR, "work")
BINARY = os.path.join(BUILD_DIR, "e2e_bench")
WORKLOADS = ("pretrain", "serve_overload")
RUN_TIMEOUT_S = 170


def fail(message):
    print("run.py: " + message, file=sys.stderr)
    sys.exit(1)


def run_quiet(cmd):
    proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                          stderr=subprocess.STDOUT, text=True)
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout[-6000:])
        fail("build step failed: " + " ".join(cmd))


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("library sources not found under " + ROOT +
             "/src; run from a full checkout")
    os.makedirs(BUILD_DIR, exist_ok=True)
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        run_quiet(["cmake", "-S", HERE, "-B", BUILD_DIR,
                   "-DCMAKE_BUILD_TYPE=Release"] + generator)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    run_quiet(["cmake", "--build", BUILD_DIR, "--target", "e2e_bench",
               "-j", jobs])


def commit():
    # Only this checkout's own repository, never an enclosing one.
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return "unavailable"
    try:
        proc = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                              stdout=subprocess.PIPE,
                              stderr=subprocess.DEVNULL, text=True,
                              timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unavailable"
    return proc.stdout.strip() if proc.returncode == 0 else "unavailable"


def load_spec():
    try:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            return json.load(f)
    except (OSError, ValueError) as e:
        fail("cannot read BENCHMARK.json: %s" % e)


def check_result(result, spec, trace):
    """Exit unless `result` has the contract's shape and exactly the
    metrics BENCHMARK.json names for this mode, with their units."""
    if not isinstance(result, dict) or sorted(result) != [
            "attempted", "correct", "failed", "metrics"]:
        fail("result keys are wrong: %r" % result)
    if not isinstance(result["correct"], bool):
        fail("correct is not a boolean")
    for key in ("attempted", "failed"):
        if not isinstance(result[key], int) or result[key] < 0:
            fail("%s is not a whole number" % key)
    if result["attempted"] < 1:
        fail("nothing was attempted")
    expected = spec["per_layer" if trace else "end_to_end"]
    metrics = result["metrics"]
    names = [m["name"] for m in expected]
    if sorted(metrics) != sorted(names):
        missing = sorted(set(names) - set(metrics))
        extra = sorted(set(metrics) - set(names))
        fail("metric names differ from BENCHMARK.json: missing %s, "
             "extra %s" % (missing, extra))
    for m in expected:
        got = metrics[m["name"]]
        if got.get("unit") != m["unit"]:
            fail("metric %s has unit %r, expected %r" %
                 (m["name"], got.get("unit"), m["unit"]))
        value = got.get("value")
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            fail("metric %s is not a finite number" % m["name"])


def run_workload(workload, seed, seconds, trace, quick):
    """Run the binary once; returns (notes, result)."""
    os.makedirs(WORK_DIR, exist_ok=True)
    cmd = [BINARY, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "1" if trace else "0",
           "--work-dir", WORK_DIR]
    if quick:
        cmd.append("--quick")
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("%s did not finish within %d s" % (workload, RUN_TIMEOUT_S))
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout[-4000:])
        fail("%s exited with code %d" % (workload, proc.returncode))
    lines = proc.stdout.strip().splitlines()
    if not lines:
        fail("%s printed nothing" % workload)
    try:
        result = json.loads(lines[-1])
    except ValueError:
        fail("%s did not end with a JSON result" % workload)
    notes = []
    for line in lines[:-1]:
        if line.startswith("env {"):
            env = json.loads(line[4:])
            env["commit"] = commit()
            line = "env " + json.dumps(env)
        notes.append(line)
    return notes, result


def smoke(spec):
    """Every workload, tiny, traced and untraced: all metrics present."""
    for workload in WORKLOADS:
        for trace in (False, True):
            _, result = run_workload(workload, 1, 1.5, trace, True)
            check_result(result, spec, trace)
            if not result["correct"] or result["failed"]:
                fail("%s trace=%d: correct=%s failed=%d" %
                     (workload, trace, result["correct"], result["failed"]))
            print("smoke ok: %s trace=%d, %d metrics" %
                  (workload, trace, len(result["metrics"])))
    print("smoke ok")


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true")
    args = parser.parse_args()
    if not args.quick and not args.workload:
        parser.error("--workload is required unless --quick")
    if not 0 < args.seconds <= 600:
        parser.error("--seconds must be in (0, 600]")

    spec = load_spec()
    build()
    if args.quick:
        smoke(spec)
        return
    notes, result = run_workload(args.workload, args.seed, args.seconds,
                                 bool(args.trace), False)
    check_result(result, spec, bool(args.trace))
    for line in notes:
        print(line)
    print(json.dumps(result))


if __name__ == "__main__":
    main()

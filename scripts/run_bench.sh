#!/usr/bin/env bash
# Build Release and capture the perf-trajectory benchmarks: the GEMM
# engine comparison (packed microkernel vs reference, Table 2b
# BERT-Large shapes), the parallel-scaling sweep, and the serving
# runtime's naive-vs-bucketed load sweep. Text goes to results/ as
# the human-readable snapshot; results/BENCH_gemm.json,
# results/BENCH_serving.json, and results/BENCH_trace.json are the
# machine-readable records successive PRs can diff for the perf
# trajectory (BENCH_trace.json guards the telemetry recorder's
# <5% overhead budget).
#
# Usage: scripts/run_bench.sh
set -euo pipefail
cd "$(dirname "$0")/.."

BUILD_DIR="${BUILD_DIR:-build-bench}"

cmake -B "${BUILD_DIR}" -S . -DCMAKE_BUILD_TYPE=Release
cmake --build "${BUILD_DIR}" -j "$(nproc)" \
    --target bench_gemm_microkernel bench_cpu_parallel_scaling \
    bench_serving bench_trace_overhead bench_fusion bench_bplint

mkdir -p results
"${BUILD_DIR}/bench/bench_gemm_microkernel" \
    --json results/BENCH_gemm.json \
    | tee results/bench_gemm_microkernel.txt
"${BUILD_DIR}/bench/bench_cpu_parallel_scaling" \
    | tee results/bench_cpu_parallel_scaling.txt
"${BUILD_DIR}/bench/bench_serving" \
    --json results/BENCH_serving.json \
    | tee results/bench_serving.txt
"${BUILD_DIR}/bench/bench_serving" --overload \
    --json results/BENCH_serving_overload.json \
    | tee results/bench_serving_overload.txt
"${BUILD_DIR}/bench/bench_trace_overhead" \
    --json results/BENCH_trace.json \
    --record results/bench_trace_overhead.bptr \
    | tee results/bench_trace_overhead.txt
"${BUILD_DIR}/bench/bench_fusion" \
    --json results/BENCH_fusion.json \
    | tee results/bench_fusion.txt
"${BUILD_DIR}/bench/bench_bplint" \
    --json results/BENCH_lint.json \
    | tee results/bench_bplint.txt

echo "snapshots: results/bench_gemm_microkernel.txt," \
     "results/BENCH_gemm.json, results/bench_cpu_parallel_scaling.txt," \
     "results/bench_serving.txt, results/BENCH_serving.json," \
     "results/bench_serving_overload.txt," \
     "results/BENCH_serving_overload.json," \
     "results/bench_trace_overhead.txt, results/BENCH_trace.json," \
     "results/bench_fusion.txt, results/BENCH_fusion.json," \
     "results/bench_bplint.txt, results/BENCH_lint.json"

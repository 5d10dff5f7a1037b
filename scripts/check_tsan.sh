#!/usr/bin/env bash
# Build the tree under ThreadSanitizer and run the tier-1 test suite
# with the thread pool forced wide, so races in src/runtime and the
# parallelized ops surface even on small machines.
#
# Usage: scripts/check_tsan.sh [ctest-label-regex]
#   With no argument the full suite runs; pass e.g. "parallel" to
#   restrict to the runtime/ops parallelism tests, "robust" for the
#   checkpoint/fault-injection suites, "serve" for the serving
#   runtime (dynamic batcher + 8 concurrent client threads — the
#   serving suite must be TSan-clean at this width), or "telemetry"
#   for the trace recorder (8 producer threads + the background
#   flusher against one container). The full run and
#   the "robust" run also execute the kill-and-resume smoke
#   (scripts/check_resume.sh) against this sanitized build.
#
# Env passthrough (defaults in parentheses):
#   BERTPROF_NUM_THREADS (8)  pool width while testing
#   BERTPROF_GEMM_IMPL (packed)  GEMM engine: packed | reference —
#     sweep both so the sanitizer matrix covers the reference engine's
#     row partition as well as the packed engine's thread-local
#     packing buffers.
#   BERTPROF_FUSION (off)  fused eval kernels on the eager path:
#     on | off — sweep both so the matrix also covers the fused eval
#     kernels' thread-local scratch rows and per-worker score blocks
#     (training never runs fused kernels).
set -euo pipefail
cd "$(dirname "$0")/.."

BUILD_DIR=build-tsan
LABEL="${1:-}"

cmake -B "${BUILD_DIR}" -S . -DBERTPROF_SANITIZE=thread \
    -DCMAKE_BUILD_TYPE=RelWithDebInfo
cmake --build "${BUILD_DIR}" -j "$(nproc)"

# Force real parallelism regardless of the host's core count: races
# only exist when multiple workers touch the kernels. The packed GEMM
# engine is the default code under test (thread-local packing buffers,
# row-sliced writes); override BERTPROF_GEMM_IMPL=reference to sweep
# the other engine.
export BERTPROF_NUM_THREADS="${BERTPROF_NUM_THREADS:-8}"
export BERTPROF_GEMM_IMPL="${BERTPROF_GEMM_IMPL:-packed}"
export BERTPROF_FUSION="${BERTPROF_FUSION:-off}"
export TSAN_OPTIONS="${TSAN_OPTIONS:-halt_on_error=0 exitcode=66}"

if [[ -n "${LABEL}" ]]; then
    ctest --test-dir "${BUILD_DIR}" -L "${LABEL}" --output-on-failure
else
    ctest --test-dir "${BUILD_DIR}" --output-on-failure
fi
if [[ -z "${LABEL}" || "${LABEL}" == "robust" ]]; then
    scripts/check_resume.sh "${BUILD_DIR}"
fi
# The overload chaos smoke under TSan: 8 client threads + the
# executor with submit/batch/compute faults armed is exactly the
# interleaving soup where a shedding-path race would hide.
if [[ -z "${LABEL}" || "${LABEL}" == "serve" ]]; then
    scripts/check_chaos.sh "${BUILD_DIR}"
fi
echo "ThreadSanitizer run clean (GEMM_IMPL=${BERTPROF_GEMM_IMPL}," \
     "FUSION=${BERTPROF_FUSION})."

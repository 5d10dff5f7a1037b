/**
 * @file
 * Chunked parallel-loop primitives over the work-stealing thread pool.
 *
 * Determinism policy: chunk boundaries are a pure function of the
 * iteration range and the requested grain — never of the thread
 * count — and every chunk writes a disjoint slice of the output with
 * the same per-element arithmetic as the serial loop. Kernels built
 * on parallelFor/parallelFor2d are therefore bitwise identical for
 * every thread count. parallelForChunks carries reductions the same
 * way: it exposes the chunk index, so chunk-local partials can be
 * merged in chunk order, and it walks the same grid with one thread,
 * so every thread count (1 included) produces identical bits.
 *
 * Nested use (a body invoking another parallel loop) falls back to
 * serial execution inside the worker — no deadlock, no
 * oversubscription.
 */

#ifndef BERTPROF_RUNTIME_PARALLEL_FOR_H
#define BERTPROF_RUNTIME_PARALLEL_FOR_H

#include <algorithm>
#include <cstdint>
#include <functional>

namespace bertprof {

/** Default grain (elements per chunk) for flat element-wise loops. */
inline constexpr std::int64_t kElementwiseGrain = 8192;

/** Grain for row loops: chunk rows so a chunk spans roughly
 * kElementwiseGrain elements of `cols`-wide rows. */
inline std::int64_t
rowGrain(std::int64_t cols)
{
    return std::max<std::int64_t>(
        1, kElementwiseGrain / std::max<std::int64_t>(1, cols));
}

/**
 * Invoke body(lo, hi) over disjoint sub-ranges covering [begin, end).
 * Chunks are `grain` wide (last one ragged), capped at a fixed chunk
 * count by growing the grain. Serial path (1 thread, single chunk, or
 * nested call) invokes body(begin, end) once — the unmodified serial
 * loop. Exceptions thrown by body propagate to the caller.
 */
void parallelFor(std::int64_t begin, std::int64_t end, std::int64_t grain,
                 const std::function<void(std::int64_t, std::int64_t)> &body);

/**
 * Two-dimensional variant: body(i0_lo, i0_hi, i1_lo, i1_hi) over a
 * deterministic grid of [0, n0) x [0, n1) blocks. Serial path invokes
 * body(0, n0, 0, n1) once.
 */
void parallelFor2d(
    std::int64_t n0, std::int64_t n1, std::int64_t grain0,
    std::int64_t grain1,
    const std::function<void(std::int64_t, std::int64_t, std::int64_t,
                             std::int64_t)> &body);

/**
 * Number of chunks parallelFor splits a range of `range` iterations
 * into at `grain` (at most 256). Pure in (range, grain).
 */
std::int64_t chunkCount(std::int64_t range, std::int64_t grain);

/**
 * body(chunk, lo, hi) for every chunk c in [0, chunkCount(end - begin,
 * grain)) of parallelFor's grid — also with one thread, where the
 * chunks run in order on the caller. A kernel that keeps one partial
 * per chunk and merges the partials in chunk order therefore gets the
 * same bits at every thread count, 1 included.
 */
void parallelForChunks(
    std::int64_t begin, std::int64_t end, std::int64_t grain,
    const std::function<void(std::int64_t, std::int64_t, std::int64_t)>
        &body);

} // namespace bertprof

#endif // BERTPROF_RUNTIME_PARALLEL_FOR_H

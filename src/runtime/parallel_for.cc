#include "runtime/parallel_for.h"

#include "runtime/thread_pool.h"

namespace bertprof {

namespace {

/** Upper bound on chunks per flat loop: bounds scheduling overhead
 * while staying far above any realistic lane count, and is constant so
 * chunk grids never depend on the thread count. */
constexpr std::int64_t kMaxChunks = 256;

/** Per-dimension chunk cap for 2-D grids (16 x 16 = kMaxChunks). */
constexpr std::int64_t kMaxChunksPerDim = 16;

/** Deterministic effective grain: at least `grain`, grown so the
 * chunk count never exceeds `max_chunks`. Pure in (range, grain). */
std::int64_t
resolveGrain(std::int64_t range, std::int64_t grain, std::int64_t max_chunks)
{
    const std::int64_t g = std::max<std::int64_t>(1, grain);
    if ((range + g - 1) / g > max_chunks)
        return (range + max_chunks - 1) / max_chunks;
    return g;
}

} // namespace

void
parallelFor(std::int64_t begin, std::int64_t end, std::int64_t grain,
            const std::function<void(std::int64_t, std::int64_t)> &body)
{
    const std::int64_t range = end - begin;
    if (range <= 0)
        return;
    const std::int64_t g = resolveGrain(range, grain, kMaxChunks);
    const std::int64_t chunks = (range + g - 1) / g;
    ThreadPool &pool = ThreadPool::instance();
    if (chunks <= 1 || pool.numThreads() <= 1 || ThreadPool::inWorker()) {
        body(begin, end);
        return;
    }
    pool.run(chunks, [&](std::int64_t c) {
        const std::int64_t lo = begin + c * g;
        body(lo, std::min(lo + g, end));
    });
}

void
parallelFor2d(std::int64_t n0, std::int64_t n1, std::int64_t grain0,
              std::int64_t grain1,
              const std::function<void(std::int64_t, std::int64_t,
                                       std::int64_t, std::int64_t)> &body)
{
    if (n0 <= 0 || n1 <= 0)
        return;
    const std::int64_t g0 = resolveGrain(n0, grain0, kMaxChunksPerDim);
    const std::int64_t g1 = resolveGrain(n1, grain1, kMaxChunksPerDim);
    const std::int64_t c0 = (n0 + g0 - 1) / g0;
    const std::int64_t c1 = (n1 + g1 - 1) / g1;
    ThreadPool &pool = ThreadPool::instance();
    if (c0 * c1 <= 1 || pool.numThreads() <= 1 || ThreadPool::inWorker()) {
        body(0, n0, 0, n1);
        return;
    }
    pool.run(c0 * c1, [&](std::int64_t c) {
        const std::int64_t lo0 = (c / c1) * g0;
        const std::int64_t lo1 = (c % c1) * g1;
        body(lo0, std::min(lo0 + g0, n0), lo1, std::min(lo1 + g1, n1));
    });
}

std::int64_t
chunkCount(std::int64_t range, std::int64_t grain)
{
    if (range <= 0)
        return 0;
    const std::int64_t g = resolveGrain(range, grain, kMaxChunks);
    return (range + g - 1) / g;
}

void
parallelForChunks(
    std::int64_t begin, std::int64_t end, std::int64_t grain,
    const std::function<void(std::int64_t, std::int64_t, std::int64_t)>
        &body)
{
    const std::int64_t range = end - begin;
    if (range <= 0)
        return;
    const std::int64_t g = resolveGrain(range, grain, kMaxChunks);
    const std::int64_t chunks = (range + g - 1) / g;
    const auto run_chunk = [&](std::int64_t c) {
        const std::int64_t lo = begin + c * g;
        body(c, lo, std::min(lo + g, end));
    };
    ThreadPool &pool = ThreadPool::instance();
    if (chunks <= 1 || pool.numThreads() <= 1 || ThreadPool::inWorker()) {
        for (std::int64_t c = 0; c < chunks; ++c)
            run_chunk(c);
        return;
    }
    pool.run(chunks, run_chunk);
}

} // namespace bertprof

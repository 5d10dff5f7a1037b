/**
 * Tests for the parallel execution runtime: coverage and exactly-once
 * execution of parallelFor/parallelFor2d chunks, serial task
 * ordering, exception propagation out of the pool, the
 * nested-parallel_for serial fallback, pool teardown/resize, and the
 * ordered-reduction determinism policy.
 */

#include <atomic>
#include <set>
#include <stdexcept>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "runtime/config.h"
#include "runtime/parallel_for.h"
#include "runtime/thread_pool.h"

namespace bertprof {
namespace {

/** Restore the configured thread count when a test exits. */
class ThreadCountGuard
{
  public:
    explicit ThreadCountGuard(int n) { setNumThreads(n); }
    ~ThreadCountGuard() { setNumThreads(0); }
};

TEST(ThreadPool, RunExecutesEveryTaskExactlyOnce)
{
    ThreadCountGuard guard(4);
    constexpr std::int64_t kTasks = 1000;
    std::vector<std::atomic<int>> hits(kTasks);
    for (auto &h : hits)
        h.store(0);
    ThreadPool::instance().run(kTasks, [&](std::int64_t i) {
        hits[static_cast<std::size_t>(i)].fetch_add(1);
    });
    for (std::int64_t i = 0; i < kTasks; ++i)
        EXPECT_EQ(hits[static_cast<std::size_t>(i)].load(), 1)
            << "task " << i;
}

TEST(ThreadPool, SerialModeRunsTasksInIndexOrder)
{
    ThreadCountGuard guard(1);
    std::vector<std::int64_t> order;
    ThreadPool::instance().run(64,
                               [&](std::int64_t i) { order.push_back(i); });
    ASSERT_EQ(order.size(), 64u);
    for (std::int64_t i = 0; i < 64; ++i)
        EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
}

TEST(ThreadPool, ParallelForCoversRangeWithDisjointChunks)
{
    ThreadCountGuard guard(4);
    constexpr std::int64_t kN = 100000;
    std::vector<std::atomic<int>> hits(kN);
    for (auto &h : hits)
        h.store(0);
    parallelFor(0, kN, 1024, [&](std::int64_t lo, std::int64_t hi) {
        EXPECT_LT(lo, hi);
        for (std::int64_t i = lo; i < hi; ++i)
            hits[static_cast<std::size_t>(i)].fetch_add(1);
    });
    for (std::int64_t i = 0; i < kN; ++i)
        ASSERT_EQ(hits[static_cast<std::size_t>(i)].load(), 1)
            << "index " << i;
}

TEST(ThreadPool, ParallelFor2dCoversGridExactlyOnce)
{
    ThreadCountGuard guard(4);
    constexpr std::int64_t kRows = 300, kCols = 170;
    std::vector<std::atomic<int>> hits(kRows * kCols);
    for (auto &h : hits)
        h.store(0);
    parallelFor2d(kRows, kCols, 7, 13,
                  [&](std::int64_t r_lo, std::int64_t r_hi,
                      std::int64_t c_lo, std::int64_t c_hi) {
                      for (std::int64_t r = r_lo; r < r_hi; ++r)
                          for (std::int64_t c = c_lo; c < c_hi; ++c)
                              hits[static_cast<std::size_t>(r * kCols + c)]
                                  .fetch_add(1);
                  });
    for (std::int64_t i = 0; i < kRows * kCols; ++i)
        ASSERT_EQ(hits[static_cast<std::size_t>(i)].load(), 1)
            << "cell " << i;
}

TEST(ThreadPool, EmptyAndNegativeRangesAreNoOps)
{
    ThreadCountGuard guard(4);
    int calls = 0;
    // The ranges below are empty, so the bodies never execute; the
    // unsynchronized counter is exactly what proves that.
    // bplint: allow(parallel-capture-race)
    parallelFor(0, 0, 8, [&](std::int64_t, std::int64_t) { ++calls; });
    // bplint: allow(parallel-capture-race)
    parallelFor(5, 5, 8, [&](std::int64_t, std::int64_t) { ++calls; });
    // bplint: allow(parallel-capture-race)
    parallelFor(9, 3, 8, [&](std::int64_t, std::int64_t) { ++calls; });
    parallelFor2d(0, 10, 1, 1,
                  [&](std::int64_t, std::int64_t, std::int64_t,
                      // bplint: allow(parallel-capture-race)
                      std::int64_t) { ++calls; });
    parallelForChunks(3, 3, 8,
                      [&](std::int64_t, std::int64_t, std::int64_t) {
                          // bplint: allow(parallel-capture-race)
                          ++calls;
                      });
    EXPECT_EQ(calls, 0);
    EXPECT_EQ(chunkCount(0, 8), 0);
}

TEST(ThreadPool, ExceptionPropagatesFromParallelBody)
{
    ThreadCountGuard guard(4);
    EXPECT_THROW(
        parallelFor(0, 10000, 16,
                    [&](std::int64_t lo, std::int64_t) {
                        if (lo >= 5000)
                            throw std::runtime_error("boom");
                    }),
        std::runtime_error);
    // The pool must remain usable after an exceptional region.
    std::atomic<std::int64_t> sum{0};
    parallelFor(0, 100, 10, [&](std::int64_t lo, std::int64_t hi) {
        sum.fetch_add(hi - lo);
    });
    EXPECT_EQ(sum.load(), 100);
}

TEST(ThreadPool, ExceptionPropagatesInSerialMode)
{
    ThreadCountGuard guard(1);
    EXPECT_THROW(parallelFor(0, 10, 1,
                             [](std::int64_t, std::int64_t) {
                                 throw std::runtime_error("serial boom");
                             }),
                 std::runtime_error);
}

TEST(ThreadPool, NestedParallelForFallsBackToSerial)
{
    ThreadCountGuard guard(4);
    std::atomic<int> outer_chunks{0};
    std::atomic<int> inner_cross_thread{0};
    std::atomic<std::int64_t> inner_total{0};
    parallelFor(0, 64, 1, [&](std::int64_t, std::int64_t) {
        outer_chunks.fetch_add(1);
        const std::thread::id outer_thread = std::this_thread::get_id();
        // Inside a pool task every thread reports inWorker(), so the
        // inner loop must execute inline on the same thread.
        EXPECT_TRUE(ThreadPool::inWorker());
        parallelFor(0, 1000, 10, [&](std::int64_t lo, std::int64_t hi) {
            if (std::this_thread::get_id() != outer_thread)
                inner_cross_thread.fetch_add(1);
            inner_total.fetch_add(hi - lo);
        });
    });
    EXPECT_EQ(outer_chunks.load(), 64);
    EXPECT_EQ(inner_cross_thread.load(), 0);
    EXPECT_EQ(inner_total.load(), 64 * 1000);
    // Outside any region the calling thread is not a pool context.
    EXPECT_FALSE(ThreadPool::inWorker());
}

TEST(ThreadPool, ResizeTearsDownAndRespawnsWorkers)
{
    ThreadCountGuard guard(4);
    for (const int n : {1, 2, 8, 1, 4}) {
        setNumThreads(n);
        EXPECT_EQ(ThreadPool::instance().numThreads(), n);
        std::atomic<std::int64_t> sum{0};
        parallelFor(0, 4096, 64, [&](std::int64_t lo, std::int64_t hi) {
            sum.fetch_add(hi - lo);
        });
        EXPECT_EQ(sum.load(), 4096) << "threads=" << n;
    }
}

TEST(ThreadPool, ParallelRunsUseMultipleThreadsWhenConfigured)
{
    ThreadCountGuard guard(4);
    std::mutex m;
    std::set<std::thread::id> seen;
    // Many more chunks than lanes plus a touch of work per chunk so
    // sleeping workers have time to wake and participate.
    parallelFor(0, 1 << 18, 256, [&](std::int64_t lo, std::int64_t hi) {
        volatile double sink = 0.0;
        for (std::int64_t i = lo; i < hi; ++i)
            sink = sink + static_cast<double>(i);
        std::lock_guard<std::mutex> lock(m);
        // The shared set is guarded by the mutex acquired above.
        // bplint: allow(parallel-capture-race)
        seen.insert(std::this_thread::get_id());
    });
    // With work stealing at least the caller participates; on any
    // multi-core box workers join too. Never more than the lane count.
    EXPECT_GE(seen.size(), 1u);
    EXPECT_LE(seen.size(), 4u);
}

TEST(ThreadPool, ChunkPartialsAgreeAtEveryThreadCount)
{
    // Pseudo-random values whose flat sum depends on association
    // order in general; per-chunk partials merged in chunk order must
    // agree at every thread count, 1 included, because the chunk grid
    // is thread-count independent and one thread walks it too.
    constexpr std::int64_t kN = 300000;
    std::vector<double> values(kN);
    std::uint64_t state = 0x9e3779b97f4a7c15ULL;
    for (auto &value : values) {
        state = state * 6364136223846793005ULL + 1442695040888963407ULL;
        value = static_cast<double>(state >> 11) * 0x1.0p-53 - 0.5;
    }
    const auto ordered_sum = [&] {
        const std::int64_t chunks = chunkCount(kN, 1024);
        std::vector<double> partials(static_cast<std::size_t>(chunks));
        std::vector<int> visits(static_cast<std::size_t>(chunks), 0);
        parallelForChunks(
            0, kN, 1024,
            [&](std::int64_t c, std::int64_t lo, std::int64_t hi) {
                double acc = 0.0;
                for (std::int64_t i = lo; i < hi; ++i)
                    acc += values[static_cast<std::size_t>(i)];
                partials[static_cast<std::size_t>(c)] = acc;
                ++visits[static_cast<std::size_t>(c)];
            });
        for (const int v : visits)
            EXPECT_EQ(v, 1);
        double total = 0.0;
        for (const double p : partials)
            total += p;
        return total;
    };
    EXPECT_EQ(chunkCount(kN, 1024), 256); // capped, grain grown
    setNumThreads(1);
    const double sum1 = ordered_sum();
    setNumThreads(2);
    const double sum2 = ordered_sum();
    setNumThreads(8);
    const double sum8 = ordered_sum();
    setNumThreads(0);
    EXPECT_EQ(sum1, sum2); // bitwise: same chunk grid, same merge order
    EXPECT_EQ(sum2, sum8);
}

} // namespace
} // namespace bertprof

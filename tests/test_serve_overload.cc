/**
 * @file
 * Overload-resilience suite: monoAddMicros saturation, the pending
 * queue's EDF edge cases (equal deadlines, the MonoTime{} sentinel)
 * and shedding primitives, admission-control policies (reject-new vs
 * drop-oldest, EWMA-based unmeetable-deadline refusal), the
 * hysteretic degradation ladder, and an in-process chaos run — 8
 * client threads against a server with serve.submit/serve.compute
 * faults armed, where every future must resolve exactly once.
 */

#include <atomic>
#include <cstdint>
#include <limits>
#include <thread>

#include <gtest/gtest.h>

#include "runtime/fault_injection.h"
#include "serve/batcher.h"
#include "serve/server.h"
#include "serve/traffic.h"
#include "test_helpers.h"

namespace bertprof {
namespace {

using ::bertprof::testing::tinyBertConfig;

constexpr std::int64_t kPadId = 3;

/** Configure the process-wide injector for one test, reset after. */
struct InjectorGuard {
    ~InjectorGuard() { FaultInjector::instance().reset(); }
};

PendingRequest
makePending(std::uint64_t id, std::int64_t len, MonoTime arrival,
            std::int64_t deadline_us)
{
    PendingRequest p;
    p.request.id = id;
    p.request.tokenIds.assign(static_cast<std::size_t>(len), 5);
    p.request.segmentIds.assign(static_cast<std::size_t>(len), 0);
    p.request.arrival = arrival;
    p.request.deadline = monoAddMicros(arrival, deadline_us);
    return p;
}

ResolvedServePolicy
makePolicy(int max_batch, std::int64_t max_wait_us)
{
    ResolvedServePolicy policy;
    policy.maxBatch = max_batch;
    policy.maxWaitUs = max_wait_us;
    return policy;
}

// --------------------------------------------------------------------
// monoAddMicros saturation
// --------------------------------------------------------------------

TEST(MonoAddMicros, SaturatesInsteadOfOverflowing)
{
    const MonoTime now = monoNow();
    // An extreme defaultDeadlineUs must clamp to the clock's end of
    // time, not wrap into the past.
    EXPECT_EQ(monoAddMicros(now, std::numeric_limits<std::int64_t>::max()),
              MonoTime::max());
    EXPECT_EQ(monoAddMicros(now, std::numeric_limits<std::int64_t>::min()),
              MonoTime::min());
    // Saturated values still order correctly against real deadlines.
    EXPECT_LT(monoAddMicros(now, 1000),
              monoAddMicros(now,
                            std::numeric_limits<std::int64_t>::max()));
    // Ordinary arithmetic is untouched.
    EXPECT_EQ(monoAddMicros(now, 1500) - now,
              std::chrono::microseconds(1500));
    EXPECT_EQ(monoAddMicros(now, -1500) - now,
              -std::chrono::microseconds(1500));
}

// --------------------------------------------------------------------
// PendingQueue EDF edge cases and shedding primitives
// --------------------------------------------------------------------

TEST(PendingQueueEdf, EqualDeadlinesAndArrivalsPickLowestBucket)
{
    PendingQueue queue(3);
    const MonoTime t0 = monoNow();
    // Identical deadline AND arrival in buckets 2 and 1: the scan
    // order makes the lowest-index bucket the stable winner.
    queue.push(2, makePending(1, 20, t0, 1000));
    queue.push(1, makePending(2, 12, t0, 1000));
    EXPECT_EQ(queue.leadBucket(), 1);
    // A strictly earlier arrival at the same deadline wins the tie.
    queue.push(2, makePending(3, 20, monoAddMicros(t0, -10), 1010));
    EXPECT_EQ(queue.leadBucket(), 1); // head of 2 is still id=1
}

TEST(PendingQueueEdf, DefaultMonoTimeSentinelLeadsEverything)
{
    PendingQueue queue(2);
    const MonoTime t0 = monoNow();
    // Request 1 must still be live at the dropExpired below, also in
    // sanitizer builds.
    queue.push(0, makePending(1, 4, t0, 60'000'000));
    // A request whose deadline was never stamped (MonoTime{} — the
    // clock's epoch, long before now) sorts as maximally urgent; the
    // server always stamps deadlines, but the queue must stay total
    // -ordered even on the sentinel.
    PendingRequest unstamped;
    unstamped.request.id = 2;
    unstamped.request.tokenIds.assign(12, 5);
    unstamped.request.segmentIds.assign(12, 0);
    unstamped.request.arrival = t0;
    ASSERT_EQ(unstamped.request.deadline, MonoTime{});
    queue.push(1, std::move(unstamped));
    EXPECT_EQ(queue.leadBucket(), 1);
    // And dropExpired treats the sentinel as already past.
    const auto dead = queue.dropExpired(monoNow());
    ASSERT_EQ(dead.size(), 1u);
    EXPECT_EQ(dead[0].request.id, 2u);
    EXPECT_EQ(queue.size(), 1u);
}

TEST(PendingQueueShed, DropExpiredRemovesAcrossBuckets)
{
    PendingQueue queue(2);
    const MonoTime t0 = monoNow();
    queue.push(0, makePending(1, 4, t0, -100)); // already dead
    queue.push(0, makePending(2, 4, t0, 60000000));
    queue.push(1, makePending(3, 12, t0, -50)); // already dead
    const auto dead = queue.dropExpired(monoNow());
    EXPECT_EQ(dead.size(), 2u);
    EXPECT_EQ(queue.size(), 1u);
    EXPECT_EQ(queue.head(0).id, 2u);
}

TEST(PendingQueueShed, ShedLowestUrgencyDropsLatestDeadlinesFirst)
{
    PendingQueue queue(2);
    const MonoTime t0 = monoNow();
    queue.push(0, makePending(1, 4, t0, 1000));
    queue.push(0, makePending(2, 4, t0, 90000000)); // least urgent
    queue.push(1, makePending(3, 12, t0, 5000));
    queue.push(1, makePending(4, 12, t0, 60000000));
    const auto shed = queue.shedLowestUrgency(2);
    ASSERT_EQ(shed.size(), 2u);
    EXPECT_EQ(shed[0].request.id, 2u);
    EXPECT_EQ(shed[1].request.id, 4u);
    EXPECT_EQ(queue.size(), 2u);
    EXPECT_EQ(queue.head(0).id, 1u);
    EXPECT_EQ(queue.head(1).id, 3u);
}

// --------------------------------------------------------------------
// Admission control
// --------------------------------------------------------------------

TEST(Admission, RejectNewRefusesAtCap)
{
    ResolvedServePolicy policy = makePolicy(8, 60000000);
    policy.queueCap = 2;
    policy.queuePolicy = QueuePolicy::RejectNew;
    policy.degrade = false;
    DynamicBatcher batcher(BucketSpec({8}), policy);
    const MonoTime t0 = monoNow();
    for (std::uint64_t id = 1; id <= 2; ++id) {
        PendingRequest p = makePending(id, 4, t0, 60000000);
        EXPECT_EQ(batcher.submit(p), RejectReason::None);
    }
    PendingRequest third = makePending(3, 4, t0, 60000000);
    EXPECT_EQ(batcher.submit(third), RejectReason::QueueFull);
    EXPECT_EQ(batcher.pendingCount(), 2u);
}

TEST(Admission, DropOldestEvictsAndResolvesTheVictim)
{
    ResolvedServePolicy policy = makePolicy(8, 60000000);
    policy.queueCap = 1;
    policy.queuePolicy = QueuePolicy::DropOldest;
    policy.degrade = false;
    DynamicBatcher batcher(BucketSpec({8}), policy);
    const MonoTime t0 = monoNow();

    PendingRequest first = makePending(1, 4, t0, 60000000);
    std::future<InferReply> victim = first.promise.get_future();
    EXPECT_EQ(batcher.submit(first), RejectReason::None);
    PendingRequest second = makePending(2, 4, t0, 60000000);
    EXPECT_EQ(batcher.submit(second), RejectReason::None);

    // The evicted oldest resolved QueueFull; the newcomer queued.
    const InferReply evicted = victim.get();
    EXPECT_FALSE(evicted.ok);
    EXPECT_EQ(evicted.id, 1u);
    EXPECT_EQ(evicted.reject, RejectReason::QueueFull);
    EXPECT_EQ(batcher.pendingCount(), 1u);
    EXPECT_EQ(batcher.rejectedCount(RejectReason::QueueFull), 1);
}

TEST(Admission, EwmaRejectsUnmeetableDeadlines)
{
    DynamicBatcher batcher(BucketSpec({8}), makePolicy(8, 60000000));
    // Before any measurement the gate is open: 1ms deadline admits.
    {
        PendingRequest p = makePending(1, 4, monoNow(), 1000);
        EXPECT_EQ(batcher.submit(p), RejectReason::None);
    }
    batcher.recordServiceTime(0, 0.1); // 100ms measured service
    EXPECT_NEAR(batcher.serviceEwmaSeconds(0), 0.1, 1e-9);
    // Now a 1ms deadline is provably unmeetable. Submit-path refusals
    // leave the request with the caller, who funnels it through
    // resolveRejected — the server contract.
    {
        PendingRequest p = makePending(2, 4, monoNow(), 1000);
        std::future<InferReply> f = p.promise.get_future();
        const RejectReason reason = batcher.submit(p);
        EXPECT_EQ(reason, RejectReason::Expired);
        batcher.resolveRejected(p, reason);
        const InferReply reply = f.get();
        EXPECT_FALSE(reply.ok);
        EXPECT_EQ(reply.reject, RejectReason::Expired);
    }
    // A roomy deadline still admits.
    {
        PendingRequest p = makePending(3, 4, monoNow(), 60000000);
        EXPECT_EQ(batcher.submit(p), RejectReason::None);
    }
    EXPECT_EQ(batcher.rejectedCount(RejectReason::Expired), 1);
}

TEST(Admission, DeadOnArrivalIsExpiredNotQueued)
{
    DynamicBatcher batcher(BucketSpec({8}), makePolicy(8, 1000));
    PendingRequest p = makePending(1, 4, monoNow(), -1000);
    EXPECT_EQ(batcher.submit(p), RejectReason::Expired);
    EXPECT_EQ(batcher.pendingCount(), 0u);
}

// --------------------------------------------------------------------
// Degradation ladder
// --------------------------------------------------------------------

TEST(DegradeLadder, RisesWithDepthAndShedsAtLevelThree)
{
    ResolvedServePolicy policy = makePolicy(/*max_batch=*/8,
                                            /*max_wait_us=*/60000000);
    policy.queueCap = 4; // one bucket: thresholds 2 / 3 / 4
    DynamicBatcher batcher(BucketSpec({8}), policy);
    const MonoTime t0 = monoNow();

    std::vector<std::future<InferReply>> futures;
    for (std::uint64_t id = 1; id <= 4; ++id) {
        PendingRequest p = makePending(id, 4, t0, 60000000);
        futures.push_back(p.promise.get_future());
        ASSERT_EQ(batcher.submit(p), RejectReason::None);
    }
    EXPECT_EQ(batcher.degradeLevel(), 3);

    // At level 3 the executor sheds down to the entry threshold - 1
    // (3), then flushes with the halved fan-out cap (4): one request
    // resolves QueueFull, three ship, and the drained ladder resets.
    Batch batch;
    ASSERT_TRUE(batcher.nextBatch(batch));
    EXPECT_EQ(batch.requests.size(), 3u);
    EXPECT_EQ(batcher.rejectedCount(RejectReason::QueueFull), 1);
    EXPECT_EQ(batcher.degradeLevel(), 0);

    // The shed future resolved typed; id 4 (newest = least urgent
    // tail) was the victim.
    const InferReply shed = futures[3].get();
    EXPECT_FALSE(shed.ok);
    EXPECT_EQ(shed.reject, RejectReason::QueueFull);
}

TEST(DegradeLadder, HysteresisHoldsTheLevelUntilHalfThreshold)
{
    // maxBatch 1 drains one request per nextBatch, stepping the depth
    // down 4 -> 3 -> 2 so the exit boundary is observable.
    ResolvedServePolicy policy = makePolicy(/*max_batch=*/1,
                                            /*max_wait_us=*/1000);
    policy.queueCap = 8; // one bucket: enter 4 / 6 / 7, exit 2 / 3 / 3
    DynamicBatcher batcher(BucketSpec({8}), policy);
    const MonoTime t0 = monoNow();
    for (std::uint64_t id = 1; id <= 4; ++id) {
        PendingRequest p = makePending(id, 4, t0, 60000000);
        ASSERT_EQ(batcher.submit(p), RejectReason::None);
    }
    EXPECT_EQ(batcher.degradeLevel(), 1);
    Batch batch;
    // Depth 3 after one drain: above the exit boundary (2), so the
    // ladder holds level 1 even though depth is below the entry (4).
    ASSERT_TRUE(batcher.nextBatch(batch));
    EXPECT_EQ(batcher.degradeLevel(), 1);
    // Depth 2 reaches the exit boundary: now it steps down.
    ASSERT_TRUE(batcher.nextBatch(batch));
    EXPECT_EQ(batcher.degradeLevel(), 0);
}

TEST(DegradeLadder, DisabledLadderNeverEngages)
{
    ResolvedServePolicy policy = makePolicy(8, 60000000);
    policy.queueCap = 4;
    policy.degrade = false;
    DynamicBatcher batcher(BucketSpec({8}), policy);
    const MonoTime t0 = monoNow();
    for (std::uint64_t id = 1; id <= 4; ++id) {
        PendingRequest p = makePending(id, 4, t0, 60000000);
        ASSERT_EQ(batcher.submit(p), RejectReason::None);
    }
    EXPECT_EQ(batcher.degradeLevel(), 0);
}

// --------------------------------------------------------------------
// In-process chaos: 8 client threads, faults armed, every future
// resolves exactly once with a typed outcome.
// --------------------------------------------------------------------

TEST(ServeChaos, EightThreadsEveryFutureResolvesUnderFaults)
{
    InjectorGuard guard;
    FaultInjector::instance().configure(
        "slow=2000@serve.compute:1+3;reject@serve.submit:2+5;"
        "reject@serve.batch:3+2");

    const BertConfig config = tinyBertConfig();
    NnRuntime rt;
    BertClassifier clf(config, &rt);
    Rng init(81);
    clf.initialize(init);
    clf.setTraining(false);
    ClassifierEngine engine(clf, kPadId);

    ServeOptions options;
    options.maxBatch = 4;
    options.maxWaitUs = 200;
    options.queueCap = 4;
    options.defaultDeadlineUs = 50000; // tight: sheds under the stalls
    InferenceServer server(engine, BucketSpec({8, 16, 32}), options);

    constexpr int kThreads = 8;
    constexpr int kPerThread = 8;
    std::atomic<int> resolved{0};
    std::atomic<int> ok_count{0};
    std::atomic<int> typed_rejects{0};
    std::vector<std::thread> clients;
    for (int c = 0; c < kThreads; ++c) {
        clients.emplace_back([&, c] {
            Rng body(static_cast<std::uint64_t>(900 + c));
            for (int i = 0; i < kPerThread; ++i) {
                const std::int64_t len = body.uniformInt(1, 32);
                InferRequest req = syntheticRequest(
                    body,
                    static_cast<std::uint64_t>(c * kPerThread + i), len,
                    config.vocabSize);
                const InferReply reply =
                    server.submit(std::move(req)).get();
                ++resolved;
                if (reply.ok) {
                    EXPECT_EQ(reply.reject, RejectReason::None);
                    ++ok_count;
                } else {
                    EXPECT_NE(reply.reject, RejectReason::None);
                    ++typed_rejects;
                }
            }
        });
    }
    for (auto &t : clients)
        t.join();
    server.shutdown();

    // Every submission came back, each with a definite outcome.
    EXPECT_EQ(resolved.load(), kThreads * kPerThread);
    EXPECT_EQ(ok_count.load() + typed_rejects.load(),
              kThreads * kPerThread);
    // The armed faults guarantee at least the injected rejections.
    EXPECT_GE(typed_rejects.load(), 5);
    const ServerStats stats = server.stats();
    EXPECT_EQ(stats.completed + stats.rejectedTotal(),
              kThreads * kPerThread);
}

} // namespace
} // namespace bertprof

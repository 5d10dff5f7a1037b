/**
 * @file
 * The `serve_overload` workload: open-loop Poisson traffic from one
 * generator thread at a fixed absolute rate against an InferenceServer
 * over a classifier with the pretrain encoder's geometry. Requests are timed from when each was due; every accepted
 * reply is checked bitwise against a solo recompute afterwards. The
 * engine is wrapped in a benchmark-owned decorator that times each
 * batch and, in a traced run, folds the Profiler's kernel records.
 */

#include <algorithm>
#include <cmath>
#include <cstring>
#include <future>
#include <memory>
#include <numeric>
#include <thread>

#include "bench.h"
#include "nn/bert_classifier.h"
#include "runtime/config.h"
#include "serve/server.h"
#include "serve/traffic.h"

namespace e2e {

using namespace bertprof;

namespace {

/** The traffic: a fixed absolute offered load and a length mix. */
struct ServeWorkload {
    /** Offered requests per second (absolute, not a capacity multiple). */
    double rateQps;
    /** Lengths are log-uniform (long-tailed) over [minLen, maxLen]. */
    std::int64_t minLen;
    std::int64_t maxLen;
    std::int64_t deadlineUs;
    /** Per-bucket queue cap. */
    int queueCap;
};

// The rate is about 2x the capacity of the seed engine for this mix
// (about 22 requests/s on a 4-vCPU x86-64 host, one pool thread, SSE2
// build; see README.md). The deadline is about 2.3x one 512-token
// request alone on that idle server (175 ms). The queue cap of 4 per
// bucket is the resilient setting of bench_serving --overload: with
// the default 64 the admission gate keeps the queue far below the
// ladder's thresholds, and the ladder never moves.
constexpr ServeWorkload kOverload = {45.0, 16, 512, 400000, 4};

/** Warm-up requests per reachable bucket, sent one at a time. */
constexpr int kWarmPerBucket = 2;
constexpr std::int64_t kPadId = 3;
/** A run whose generator lags its schedule by more than this at the
 *  tail did not offer the load it claims, so it is invalid. */
constexpr double kMaxLagMs = 50.0;

BertConfig
serveConfig(bool quick)
{
    BertConfig c;
    c.name = quick ? "e2e-serve-quick" : "e2e-serve";
    c.numLayers = 2;
    c.dModel = quick ? 64 : 256;
    c.numHeads = 4;
    c.dFf = 4 * c.dModel;
    c.vocabSize = quick ? 1024 : 8192;
    c.maxPositions = quick ? 128 : 512;
    c.batch = 1;
    c.seqLen = c.maxPositions;
    c.numClasses = 2;
    return c;
}

/**
 * Decorates the real engine: times every batch and, with a profiler
 * attached to the model's runtime, folds its kernel records per batch.
 * Called only from the server's executor thread; read after shutdown.
 */
class TimedEngine final : public InferenceEngine
{
  public:
    TimedEngine(InferenceEngine &inner, Profiler *profiler, SpanLog &spans)
        : inner_(inner), profiler_(profiler), spans_(spans)
    {
    }

    std::int64_t maxPositions() const override
    {
        return inner_.maxPositions();
    }

    void
    run(const Batch &batch, std::vector<InferReply> &replies) override
    {
        const MonoTime start = monoNow();
        inner_.run(batch, replies);
        const MonoTime end = monoNow();
        if (!profiler_)
            return;
        const double kernel_s = kernels_.drain(*profiler_);
        const double ms = msBetween(start, end);
        const auto n = static_cast<double>(batch.requests.size());
        stats_.batchMs.push_back(ms);
        stats_.batchMsByBoundary[batch.paddedLen].push_back(ms);
        stats_.engineSeconds += ms * 1e-3;
        stats_.batches += 1.0;
        stats_.units += n;
        stats_.computedTokens += n * static_cast<double>(batch.paddedLen);
        for (const PendingRequest &p : batch.requests)
            stats_.realTokens +=
                static_cast<double>(p.request.tokenIds.size());
        const std::uint64_t id =
            spans_.add("serve.engine_batch", start, end, 0, 0,
                       static_cast<std::int64_t>(kernel_s * 1e9), 2);
        for (const PendingRequest &p : batch.requests)
            batchSpan_[p.request.id] = {id, ms};
    }

    /** Forget warm-up batches. */
    void
    reset()
    {
        stats_ = LayerReport();
        kernels_ = KernelTally();
        batchSpan_.clear();
    }

    /** Engine-side part of the layer report (kernels included). */
    LayerReport
    report() const
    {
        LayerReport r = stats_;
        r.kernels = kernels_;
        return r;
    }

    /** The batch span a request ran in and its duration (ms). */
    std::pair<std::uint64_t, double>
    batchOf(std::uint64_t request) const
    {
        const auto it = batchSpan_.find(request);
        return it == batchSpan_.end() ? std::pair<std::uint64_t, double>{}
                                      : it->second;
    }

  private:
    InferenceEngine &inner_;
    Profiler *profiler_;
    SpanLog &spans_;
    LayerReport stats_;
    KernelTally kernels_;
    std::map<std::uint64_t, std::pair<std::uint64_t, double>> batchSpan_;
};

/** Model, engines and server of one set-up. Holds addresses of its
 *  own members, so it is neither copied nor moved. */
struct ServeRig {
    NnRuntime rt;
    std::unique_ptr<BertClassifier> model;
    std::unique_ptr<ClassifierEngine> inner;
    std::unique_ptr<TimedEngine> engine;
    std::unique_ptr<InferenceServer> server;

    ServeRig(const BertConfig &config, const ServeOptions &options,
             std::uint64_t seed, Profiler *profiler, SpanLog &spans)
    {
        rt.profiler = profiler;
        model = std::make_unique<BertClassifier>(config, &rt);
        Rng init(seed * 0x9e3779b97f4a7c15ULL + 7);
        model->initialize(init);
        model->setTraining(false);
        inner = std::make_unique<ClassifierEngine>(*model, kPadId);
        engine = std::make_unique<TimedEngine>(*inner, profiler, spans);
        server = std::make_unique<InferenceServer>(
            *engine, BucketSpec::defaultSpec(config.maxPositions), options);
    }

    ServeRig(const ServeRig &) = delete;
    ServeRig &operator=(const ServeRig &) = delete;
};

/**
 * Warm the server before the first timed request. One full batch at
 * the mix's longest length goes straight through the engine: it warms
 * the kernels and sets the memory high-water mark of the largest batch
 * the server can form, so peak RSS does not depend on which batches
 * happen to form later. Then a few requests at the top length of every
 * reachable bucket go through the server one at a time, with far
 * deadlines, to seed each bucket's service-time estimate. One at a
 * time, because the admission gate refuses a bucket for good once its
 * estimate exceeds the deadline, and a full batch is slower than the
 * light load the gate then sees. True if every reply was ok.
 */
bool
warm(ServeRig &rig, const ServeWorkload &w, const BertConfig &config,
     std::uint64_t seed)
{
    const BucketSpec buckets = BucketSpec::defaultSpec(config.maxPositions);
    Rng body(seed ^ 0x3a3aULL);
    bool ok = true;
    std::uint64_t id = 1ULL << 62;
    Batch full;
    full.bucket = buckets.bucketFor(w.maxLen);
    full.paddedLen = buckets.boundary(full.bucket);
    for (int i = 0; i < rig.server->options().resolvedMaxBatch(); ++i) {
        PendingRequest p;
        p.request = syntheticRequest(body, id++, w.maxLen, config.vocabSize);
        full.requests.push_back(std::move(p));
    }
    std::vector<InferReply> replies;
    rig.engine->run(full, replies);
    for (const InferReply &r : replies)
        ok = r.ok && ok;
    for (int b = 0; b < buckets.numBuckets(); ++b) {
        const std::int64_t lo = b == 0 ? 1 : buckets.boundary(b - 1) + 1;
        const std::int64_t len = std::min(buckets.boundary(b), w.maxLen);
        if (len < lo || lo > w.maxLen || buckets.boundary(b) < w.minLen)
            continue;
        for (int i = 0; i < kWarmPerBucket; ++i) {
            InferRequest req =
                syntheticRequest(body, id++, len, config.vocabSize);
            req.deadline = monoAddMicros(monoNow(), 60'000'000);
            ok = rig.server->submit(std::move(req)).get().ok && ok;
        }
    }
    rig.server->resetStats();
    rig.engine->reset();
    return ok;
}

/** `count` stratified quantiles u in (0, 1), shuffled by seed: every
 *  run draws the same multiset, in a seed-dependent order. */
std::vector<double>
stratified(std::size_t count, Rng &rng)
{
    std::vector<double> u(count);
    for (std::size_t i = 0; i < count; ++i)
        u[i] = (static_cast<double>(i) + 0.5) / static_cast<double>(count);
    std::shuffle(u.begin(), u.end(), rng.engine());
    return u;
}

/** Inputs of one run: request bodies and their due offsets. */
struct Traffic {
    std::vector<InferRequest> requests;
    std::vector<double> dueS;
};

/** Seed of the arrival schedule, the same for every run. */
constexpr std::uint64_t kScheduleSeed = 0x5eedULL;

/**
 * Poisson arrivals at the workload's rate: exponential gaps, and
 * lengths from the mix, both drawn as stratified quantiles, so every
 * run offers exactly rate * seconds requests with the same token
 * total. The arrival instants are one fixed realization shared by
 * every seed; the seed sets the order of the lengths and the token
 * ids. A tail percentile taken from a few hundred requests otherwise
 * hangs on how the seed happened to bunch its arrivals.
 */
Traffic
makeTraffic(const ServeWorkload &w, double rate, double seconds,
            const BertConfig &config, std::uint64_t seed)
{
    const auto count = static_cast<std::size_t>(
        std::max(1.0, std::round(rate * seconds)));
    Rng schedule(kScheduleSeed);
    Rng rng(seed * 0x2545f4914f6cdd1dULL + 11);
    Traffic t;
    double due = 0.0;
    for (const double u : stratified(count, schedule)) {
        t.dueS.push_back(due);
        due += -std::log(1.0 - u) / rate;
    }
    const double lo = static_cast<double>(w.minLen);
    const double hi = static_cast<double>(w.maxLen);
    std::uint64_t id = 1;
    for (const double u : stratified(count, rng)) {
        const double len = lo * std::pow(hi / lo, u);
        t.requests.push_back(syntheticRequest(
            rng, id++,
            std::clamp(static_cast<std::int64_t>(len), w.minLen, w.maxLen),
            config.vocabSize));
    }
    return t;
}

/** What one measured phase saw. */
struct ServePhase {
    std::vector<InferReply> replies;
    std::vector<double> latencyMs; ///< accepted, from due time
    std::vector<double> lagMs;
    std::vector<double> submitUs;
    std::vector<double> degradeLevels;
    double wallS = 0.0;
    ServerStats stats; ///< counters of this phase only
    std::int64_t incorrect = 0;
    std::int64_t goodReplies = 0; ///< correct and within the deadline
};

ServerStats
minus(const ServerStats &a, const ServerStats &b)
{
    ServerStats d;
    d.completed = a.completed - b.completed;
    d.completedInDeadline = a.completedInDeadline - b.completedInDeadline;
    d.rejectedExpired = a.rejectedExpired - b.rejectedExpired;
    d.rejectedQueueFull = a.rejectedQueueFull - b.rejectedQueueFull;
    d.rejectedShutdown = a.rejectedShutdown - b.rejectedShutdown;
    d.rejectedOverlong = a.rejectedOverlong - b.rejectedOverlong;
    return d;
}

/** The reply matches the request run alone at its bucket, bitwise. */
bool
matchesSolo(BertClassifier &model, const BertConfig &config,
            const InferRequest &req, const InferReply &reply)
{
    if (reply.rows != 1 || reply.cols != config.numClasses ||
        reply.logits.size() != static_cast<std::size_t>(config.numClasses))
        return false;
    const BucketSpec buckets = BucketSpec::defaultSpec(config.maxPositions);
    const auto len = static_cast<std::int64_t>(req.tokenIds.size());
    const std::int64_t seq = buckets.boundary(buckets.bucketFor(len));
    std::vector<std::int64_t> tokens(static_cast<std::size_t>(seq), kPadId);
    std::vector<std::int64_t> segments(tokens.size(), 0);
    std::copy(req.tokenIds.begin(), req.tokenIds.end(), tokens.begin());
    std::copy(req.segmentIds.begin(), req.segmentIds.end(),
              segments.begin());
    const Tensor solo =
        model.forwardLogitsEval(tokens, segments, 1, seq, {len});
    return std::memcmp(solo.data(), reply.logits.data(),
                       reply.logits.size() * sizeof(float)) == 0;
}

/**
 * Replay `traffic` open-loop from this thread on an absolute schedule,
 * wait for every reply, shut the server down, then check every
 * accepted reply against a solo recompute.
 */
ServePhase
measure(ServeRig &rig, const Traffic &traffic, const BertConfig &config,
        double limit_ms, SpanLog &spans)
{
    ServePhase p;
    const std::size_t n = traffic.requests.size();
    std::vector<std::future<InferReply>> futures;
    std::vector<MonoTime> due(n);
    std::vector<MonoTime> sent(n);
    futures.reserve(n);
    const ServerStats before = rig.server->stats();
    const MonoTime start = monoAddMicros(monoNow(), 5000);
    for (std::size_t i = 0; i < n; ++i) {
        due[i] = monoAddMicros(
            start, static_cast<std::int64_t>(traffic.dueS[i] * 1e6));
        std::this_thread::sleep_until(due[i]);
        sent[i] = monoNow();
        futures.push_back(rig.server->submit(traffic.requests[i]));
        const MonoTime returned = monoNow();
        p.lagMs.push_back(msBetween(due[i], sent[i]));
        p.submitUs.push_back(msBetween(sent[i], returned) * 1e3);
        if (spans.enabled()) {
            spans.add("serve.submit", sent[i], returned, 0,
                      traffic.requests[i].id, 0, 1);
            p.degradeLevels.push_back(
                static_cast<double>(rig.server->stats().degradeLevel));
        }
    }
    MonoTime last = start;
    for (std::size_t i = 0; i < n; ++i) {
        p.replies.push_back(futures[i].get());
        const InferReply &r = p.replies.back();
        if (r.ok)
            last = std::max(last,
                            monoAddMicros(sent[i], static_cast<std::int64_t>(
                                                       r.totalSeconds * 1e6)));
    }
    p.wallS = std::max(secondsBetween(start, last), traffic.dueS.back());
    p.stats = minus(rig.server->stats(), before);
    rig.server->shutdown();

    setNumThreads(checkThreads());
    for (std::size_t i = 0; i < n; ++i) {
        const InferReply &r = p.replies[i];
        const InferRequest &req = traffic.requests[i];
        if (!r.ok) {
            if (r.reject == RejectReason::None)
                ++p.incorrect;
            continue;
        }
        const double ms = msBetween(due[i], sent[i]) + r.totalSeconds * 1e3;
        p.latencyMs.push_back(ms);
        const bool correct =
            r.id == req.id && matchesSolo(*rig.model, config, req, r);
        if (!correct)
            ++p.incorrect;
        if (correct && ms <= limit_ms)
            ++p.goodReplies;
        if (spans.enabled()) {
            const auto [batch_id, batch_ms] = rig.engine->batchOf(req.id);
            spans.add("serve.request", due[i],
                      monoAddMicros(sent[i], static_cast<std::int64_t>(
                                                 r.totalSeconds * 1e6)),
                      batch_id, req.id,
                      static_cast<std::int64_t>(batch_ms * 1e6), 1);
        }
    }
    setNumThreads(kPoolThreads);
    return p;
}

} // namespace

Result
runServe(const Args &args)
{
    const ServeWorkload &w = kOverload;
    ServeWorkload sized = w;
    if (args.quick)
        sized.maxLen = std::min<std::int64_t>(w.maxLen, 128);
    const BertConfig config = serveConfig(args.quick);
    const double rate = args.quick ? 20.0 : w.rateQps;
    ServeOptions options;
    options.defaultDeadlineUs = w.deadlineUs;
    options.queueCap = w.queueCap;
    const double limit_ms =
        static_cast<double>(options.defaultDeadlineUs) * 1e-3;
    const Traffic traffic =
        makeTraffic(sized, rate, args.phaseSeconds(), config, args.seed);

    Result result;
    std::vector<double> setup_s;
    SpanLog off(false);
    std::unique_ptr<ServeRig> rig;
    for (int i = 0; i < kSetups; ++i) {
        const MonoTime t0 = i == 0 ? processStart() : monoNow();
        rig.reset();
        rig = std::make_unique<ServeRig>(config, options, args.seed,
                                         nullptr, off);
        const bool ok = warm(*rig, sized, config, args.seed);
        setup_s.push_back(secondsBetween(t0, monoNow()));
        ++result.attempted;
        result.failed += ok ? 0 : 1;
    }
    result.e2e.setupS = median(setup_s);

    const ServePhase run = measure(*rig, traffic, config, limit_ms, off);
    rig.reset();
    const auto n = static_cast<double>(traffic.requests.size());
    result.attempted += static_cast<std::int64_t>(n);
    result.failed += run.incorrect;
    result.e2e.latencyMs = run.latencyMs;
    result.e2e.goodputSeqPerS =
        static_cast<double>(run.goodReplies) / run.wallS;
    std::vector<const ServePhase *> phases = {&run};

    const ResolvedServePolicy policy = options.resolve();
    result.notes.push_back(
        "serve options: max_batch " + std::to_string(policy.maxBatch) +
        ", max_wait_us " + std::to_string(policy.maxWaitUs) +
        ", queue_cap " + std::to_string(policy.queueCap) +
        ", deadline_us " + std::to_string(options.defaultDeadlineUs) +
        ", degrade " + (policy.degrade ? "on" : "off") + ", rate " +
        std::to_string(rate) + " req/s");
    result.notes.push_back(describeSamples("latency", "ms", run.latencyMs));
    result.notes.push_back(describeSamples("generator lag", "ms",
                                           run.lagMs));
    result.notes.push_back(describeSamples("setup_s", "s", setup_s));

    ServePhase traced_run;
    if (args.trace) {
        Profiler profiler;
        SpanLog spans(true);
        ServeRig traced(config, options, args.seed, &profiler, spans);
        result.failed += warm(traced, sized, config, args.seed) ? 0 : 1;
        ++result.attempted;
        traced_run = measure(traced, traffic, config, limit_ms, spans);
        result.attempted += static_cast<std::int64_t>(n);
        result.failed += traced_run.incorrect;
        phases.push_back(&traced_run);

        LayerReport &r = result.layers;
        r = traced.engine->report();
        const ServerStats &s = traced_run.stats;
        for (const InferReply &reply : traced_run.replies)
            if (reply.ok)
                r.queueWaitMs.push_back(reply.queueSeconds * 1e3);
        r.submitUs = traced_run.submitUs;
        r.usefulShare = s.completed > 0
                            ? static_cast<double>(s.completedInDeadline) /
                                  static_cast<double>(s.completed)
                            : 0.0;
        r.rejectExpired = static_cast<double>(s.rejectedExpired) / n;
        r.rejectQueueFull = static_cast<double>(s.rejectedQueueFull) / n;
        r.rejectOverlong = static_cast<double>(s.rejectedOverlong) / n;
        r.rejectShutdown = static_cast<double>(s.rejectedShutdown) / n;
        r.degradeLevelMean =
            std::accumulate(traced_run.degradeLevels.begin(),
                            traced_run.degradeLevels.end(), 0.0) /
            n;
        r.lagMsTail = tailOf(traced_run.lagMs).value;
        r.overheadShare =
            median(traced_run.latencyMs) / median(run.latencyMs) - 1.0;

        const std::string path = args.workDir + "/spans-" + args.workload +
                                 "-" + std::to_string(args.seed) + ".json";
        if (!spans.writeChromeTrace(path))
            result.notes.push_back("warning: could not write " + path);
        for (const auto &[name, ms] : spans.selfMsByName())
            result.notes.push_back("self time " + name + ": " +
                                   std::to_string(ms) + " ms");
        result.notes.push_back("spans: " + path);
    }

    // fail_share: refused or incorrect requests over all attempted.
    double refused = 0.0;
    for (const ServePhase *p : phases)
        refused += static_cast<double>(p->stats.rejectedTotal());
    result.layers.failShare =
        (refused + static_cast<double>(result.failed)) /
        static_cast<double>(result.attempted);

    for (const ServePhase *p : phases) {
        const double lag_tail = tailOf(p->lagMs).value;
        if (lag_tail > kMaxLagMs) {
            result.correct = false;
            result.notes.push_back(
                "INVALID: generator fell behind its schedule (lag tail " +
                std::to_string(lag_tail) + " ms)");
        }
    }
    return result;
}

} // namespace e2e

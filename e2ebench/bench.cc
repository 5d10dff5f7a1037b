#include "bench.h"

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <thread>

#include "ops/gemm_microkernel.h"
#include "runtime/config.h"
#include "runtime/thread_pool.h"
#include "serve/serve_config.h"

extern char **environ;

namespace e2e {

using bertprof::MonoTime;
using bertprof::Phase;
using bertprof::SubLayer;

namespace {

const MonoTime kProcessStart = bertprof::monoNow();

std::int64_t
monoNs(MonoTime t)
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               t.time_since_epoch())
        .count();
}

/** Buckets of the default ladder at maxPositions 512; the per-bucket
 *  engine metrics use these names on every workload. */
constexpr std::int64_t kBoundaries[] = {32, 64, 128, 256, 384, 512};

/** Appends `"name": {"value": v, "unit": "u"}` entries. */
class MetricWriter
{
  public:
    void
    add(const std::string &name, double value, const char *unit)
    {
        char entry[256];
        std::snprintf(entry, sizeof(entry),
                      "%s\"%s\": {\"value\": %.12g, \"unit\": \"%s\"}",
                      body_.empty() ? "" : ", ", name.c_str(),
                      std::isfinite(value) ? value : 0.0, unit);
        body_ += entry;
    }

    const std::string &body() const { return body_; }

  private:
    std::string body_;
};

double
ratio(double num, double den)
{
    return den > 0.0 ? num / den : 0.0;
}

double
mean(const std::vector<double> &v)
{
    double sum = 0.0;
    for (double x : v)
        sum += x;
    return ratio(sum, static_cast<double>(v.size()));
}

void
writeEndToEnd(const EndToEnd &e, MetricWriter &m)
{
    m.add("setup_s", e.setupS, "s");
    m.add("peak_rss_mib", e.peakRssMib, "MiB");
    m.add("goodput_seq_per_s", e.goodputSeqPerS, "seq/s");
    m.add("latency_ms_p50", median(e.latencyMs), "ms");
    m.add("latency_ms_tail", tailOf(e.latencyMs).value, "ms");
}

void
writeLayers(const LayerReport &r, MetricWriter &m)
{
    const KernelTally &k = r.kernels;
    const auto per_unit_ms = [&](double seconds) {
        return ratio(seconds * 1e3, r.units);
    };
    const auto sub_ms = [&](SubLayer sub) {
        const auto it = k.subSeconds.find(sub);
        return per_unit_ms(it == k.subSeconds.end() ? 0.0 : it->second);
    };
    const auto phase_ms = [&](Phase phase) {
        const auto it = k.phaseSeconds.find(phase);
        return per_unit_ms(it == k.phaseSeconds.end() ? 0.0
                                                      : it->second);
    };

    m.add("ops.attn_linear_ms", sub_ms(SubLayer::AttnLinear), "ms");
    m.add("ops.fc_gemm_ms", sub_ms(SubLayer::FcGemm), "ms");
    m.add("ops.output_ms", sub_ms(SubLayer::OutputOps), "ms");
    m.add("ops.gemm_gflops", ratio(k.gemmFlops * 1e-9, k.gemmSeconds),
          "GFLOP/s");
    m.add("ops.attn_bgemm_ms", sub_ms(SubLayer::AttnBGemm), "ms");
    m.add("ops.attn_softmax_ms", sub_ms(SubLayer::AttnScaleMaskDrSm),
          "ms");
    m.add("ops.gelu_ms", sub_ms(SubLayer::FcGelu), "ms");
    m.add("ops.dr_rc_ln_ms", sub_ms(SubLayer::DrRcLn), "ms");
    m.add("ops.embedding_ms", sub_ms(SubLayer::EmbeddingOps), "ms");
    m.add("ops.kernels", ratio(static_cast<double>(k.opKernels), r.units),
          "count");
    m.add("ops.bytes_mib", ratio(k.opBytes, r.units) / (1024.0 * 1024.0),
          "MiB");

    m.add("nn.fwd_ms", phase_ms(Phase::Fwd), "ms");
    m.add("nn.bwd_ms", phase_ms(Phase::Bwd), "ms");

    m.add("optim.update_ms", phase_ms(Phase::Update), "ms");
    m.add("optim.lamb_stage1_ms", sub_ms(SubLayer::LambStage1), "ms");
    m.add("optim.lamb_stage2_ms", sub_ms(SubLayer::LambStage2), "ms");
    m.add("optim.grad_norm_ms", sub_ms(SubLayer::GradNorm), "ms");

    m.add("train.step_host_ms", r.stepHostMs, "ms");
    m.add("io.checkpoint_save_ms", r.checkpointSaveMs, "ms");
    m.add("io.checkpoint_mib", r.checkpointMib, "MiB");

    m.add("serve.engine_batch_ms", mean(r.batchMs), "ms");
    for (const std::int64_t b : kBoundaries) {
        const auto it = r.batchMsByBoundary.find(b);
        m.add("serve.engine_batch_ms.b" + std::to_string(b),
              it == r.batchMsByBoundary.end() ? 0.0 : mean(it->second),
              "ms");
    }
    m.add("serve.engine_us_per_token",
          ratio(r.engineSeconds * 1e6, r.computedTokens), "us");
    m.add("serve.batch_size_mean", ratio(r.units, r.batches), "count");
    m.add("serve.pad_share",
          ratio(r.computedTokens - r.realTokens, r.computedTokens),
          "ratio");
    m.add("serve.queue_wait_ms_p50", median(r.queueWaitMs), "ms");
    m.add("serve.queue_wait_ms_tail", tailOf(r.queueWaitMs).value, "ms");
    m.add("serve.submit_us_p50", median(r.submitUs), "us");
    m.add("serve.submit_us_tail", tailOf(r.submitUs).value, "us");
    m.add("serve.useful_share", r.usefulShare, "ratio");
    m.add("serve.reject_share.expired", r.rejectExpired, "ratio");
    m.add("serve.reject_share.queue_full", r.rejectQueueFull, "ratio");
    m.add("serve.reject_share.overlong", r.rejectOverlong, "ratio");
    m.add("serve.reject_share.shutdown", r.rejectShutdown, "ratio");
    m.add("serve.degrade_level_mean", r.degradeLevelMean, "level");
    m.add("loadgen.lag_ms_tail", r.lagMsTail, "ms");

    m.add("trace.overhead_share", r.overheadShare, "ratio");
    m.add("fail_share", r.failShare, "ratio");
}

std::string
jsonEscape(const std::string &s)
{
    std::string out;
    for (const char c : s) {
        if (c == '"' || c == '\\') {
            out += '\\';
            out += c;
        } else if (static_cast<unsigned char>(c) < 0x20) {
            char buf[8];
            std::snprintf(buf, sizeof(buf), "\\u%04x", c);
            out += buf;
        } else {
            out += c;
        }
    }
    return out;
}

const char *
isaName()
{
#if defined(__AVX512F__)
    return "avx512f";
#elif defined(__AVX2__)
    return "avx2";
#elif defined(__AVX__)
    return "avx";
#elif defined(__SSE2__)
    return "sse2";
#else
    return "scalar";
#endif
}

} // namespace

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

Tail
tailOf(std::vector<double> v)
{
    Tail t;
    t.count = v.size();
    if (v.empty())
        return t;
    const std::size_t n = v.size();
    if (n < 21) {
        t.value = median(std::move(v));
        t.percentile = 50.0;
        return t;
    }
    std::sort(v.begin(), v.end());
    // Exactly ten samples lie above index n - 11.
    t.value = v[n - 11];
    t.percentile = 100.0 * static_cast<double>(n - 10) /
                   static_cast<double>(n);
    return t;
}

double
KernelTally::drain(bertprof::Profiler &profiler)
{
    double total = 0.0;
    for (const bertprof::ProfileRecord &rec : profiler.records()) {
        total += rec.seconds;
        subSeconds[rec.sub] += rec.seconds;
        phaseSeconds[rec.phase] += rec.seconds;
        if (rec.scope == bertprof::LayerScope::Optimizer)
            continue;
        opBytes += static_cast<double>(rec.stats.bytesTotal());
        ++opKernels;
        if (rec.kind == bertprof::OpKind::Gemm ||
            rec.kind == bertprof::OpKind::BatchedGemm) {
            gemmSeconds += rec.seconds;
            gemmFlops += static_cast<double>(rec.stats.flops);
        }
    }
    profiler.clear();
    return total;
}

std::string
resultJson(const Result &result, bool traced)
{
    MetricWriter m;
    if (traced)
        writeLayers(result.layers, m);
    else
        writeEndToEnd(result.e2e, m);
    return std::string("{\"correct\": ") +
           (result.correct ? "true" : "false") +
           ", \"attempted\": " + std::to_string(result.attempted) +
           ", \"failed\": " + std::to_string(result.failed) +
           ", \"metrics\": {" + m.body() + "}}";
}

std::uint64_t
SpanLog::add(const char *name, MonoTime start, MonoTime end,
             std::uint64_t link, std::uint64_t request,
             std::int64_t child_ns, int thread)
{
    if (!enabled_)
        return 0;
    Span span;
    span.name = name;
    span.startNs = monoNs(start);
    span.endNs = monoNs(end);
    span.link = link;
    span.request = request;
    span.childNs = child_ns;
    span.thread = thread;
    std::lock_guard<std::mutex> lock(mu_);
    span.id = spans_.size() + 1;
    spans_.push_back(std::move(span));
    return spans_.back().id;
}

std::map<std::string, double>
SpanLog::selfMsByName() const
{
    std::lock_guard<std::mutex> lock(mu_);
    std::map<std::string, double> out;
    for (const Span &s : spans_)
        out[s.name] +=
            static_cast<double>(s.endNs - s.startNs - s.childNs) * 1e-6;
    return out;
}

bool
SpanLog::writeChromeTrace(const std::string &path) const
{
    std::lock_guard<std::mutex> lock(mu_);
    std::ofstream out(path);
    if (!out)
        return false;
    const std::int64_t origin = spans_.empty() ? 0 : spans_.front().startNs;
    out << "{\"traceEvents\": [\n";
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        const Span &s = spans_[i];
        char buf[384];
        std::snprintf(
            buf, sizeof(buf),
            "{\"name\": \"%s\", \"ph\": \"X\", \"pid\": 1, \"tid\": %d, "
            "\"ts\": %.3f, \"dur\": %.3f, \"args\": {\"id\": %llu, "
            "\"link\": %llu, \"request\": %llu, \"child_ms\": %.6f}}%s\n",
            jsonEscape(s.name).c_str(), s.thread,
            static_cast<double>(s.startNs - origin) * 1e-3,
            static_cast<double>(s.endNs - s.startNs) * 1e-3,
            static_cast<unsigned long long>(s.id),
            static_cast<unsigned long long>(s.link),
            static_cast<unsigned long long>(s.request),
            static_cast<double>(s.childNs) * 1e-6,
            i + 1 < spans_.size() ? "," : "");
        out << buf;
    }
    out << "]}\n";
    out.flush();
    return static_cast<bool>(out);
}

double
msBetween(MonoTime from, MonoTime to)
{
    return bertprof::secondsBetween(from, to) * 1e3;
}

MonoTime
processStart()
{
    return kProcessStart;
}

double
peakRssMib()
{
    struct rusage usage;
    std::memset(&usage, 0, sizeof(usage));
    if (::getrusage(RUSAGE_SELF, &usage) != 0)
        return 0.0;
    return static_cast<double>(usage.ru_maxrss) / 1024.0; // KiB -> MiB
}

int
checkThreads()
{
    return static_cast<int>(::sysconf(_SC_NPROCESSORS_ONLN));
}

std::string
environmentStamp()
{
    std::string knobs;
    for (char **e = environ; e && *e; ++e) {
        if (std::strncmp(*e, "BERTPROF_", 9) != 0)
            continue;
        const char *eq = std::strchr(*e, '=');
        if (!eq)
            continue;
        if (!knobs.empty())
            knobs += ", ";
        knobs += '"';
        knobs += jsonEscape(std::string(*e, static_cast<std::size_t>(eq - *e)));
        knobs += "\": \"";
        knobs += jsonEscape(eq + 1);
        knobs += '"';
    }
    const char *policy =
        bertprof::configuredServeQueuePolicy() ==
                bertprof::QueuePolicy::DropOldest
            ? "drop-oldest"
            : "reject-new";
    char buf[1024];
    std::snprintf(
        buf, sizeof(buf),
        "{\"nproc\": %ld, \"hardware_concurrency\": %u, "
        "\"pool_threads\": %d, \"isa\": \"%s\", \"gemm_tile\": "
        "\"%lldx%lld\", \"build_type\": \"%s\", \"gemm_impl\": \"%s\", "
        "\"fusion\": \"%s\", \"serve_max_batch\": %d, "
        "\"serve_max_wait_us\": %lld, \"serve_queue_cap\": %d, "
        "\"serve_queue_policy\": \"%s\", \"serve_degrade\": %s, "
        "\"env\": {",
        ::sysconf(_SC_NPROCESSORS_ONLN),
        std::thread::hardware_concurrency(),
        bertprof::ThreadPool::instance().numThreads(), isaName(),
        static_cast<long long>(bertprof::kGemmMR),
        static_cast<long long>(bertprof::kGemmNR), E2E_BUILD_TYPE,
        bertprof::gemmImplName(bertprof::configuredGemmImpl()),
        bertprof::fusionModeName(bertprof::configuredFusionMode()),
        bertprof::configuredServeMaxBatch(),
        static_cast<long long>(bertprof::configuredServeMaxWaitUs()),
        bertprof::configuredServeQueueCap(), policy,
        bertprof::configuredServeDegrade() ? "true" : "false");
    return std::string(buf) + knobs + "}}";
}

std::string
describeSamples(const char *name, const char *unit,
                const std::vector<double> &samples)
{
    const Tail t = tailOf(samples);
    char buf[256];
    std::snprintf(buf, sizeof(buf),
                  "%s: p50 %.4g %s, tail p%.2f %.4g %s (n=%zu)", name,
                  median(samples), unit, t.percentile, t.value, unit,
                  t.count);
    return buf;
}

} // namespace e2e

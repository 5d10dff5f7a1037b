/**
 * @file
 * Measured fused-vs-unfused encoder-layer performance on the CPU
 * substrate: eval forward and closed-loop serving throughput, each
 * with the fused kernels on and off. The fused kernels are eval-only,
 * so training runs the same kernels either way and has no row here.
 * Alongside each measured ratio the Fig. 12-style analytical
 * prediction is reported: the kernel-count and memory-traffic ratios
 * from the same runs' KernelStats (traffic ratio is
 * the roofline memory-bound speedup upper bound; GEMM-heavy spans are
 * compute-bound, so the measured ratio sits below it).
 *
 * Usage: bench_fusion [--quick] [--json <path>]
 */

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <functional>
#include <future>
#include <string>
#include <utility>
#include <vector>

#include "core/bertprof.h"
#include "nn/encoder_layer.h"
#include "runtime/config.h"
#include "serve/server.h"
#include "serve/traffic.h"
#include "util/stopwatch.h"

using namespace bertprof;

namespace {

struct Measurement {
    double ms = 0.0;
    std::int64_t kernels = 0;
    double bytes = 0.0;
};

/** Kernel count and KernelStats traffic from one profiled call. */
template <typename Fn>
Measurement
profileOnce(Profiler &prof, Fn &&fn)
{
    fn(); // warm caches and the thread pool
    prof.clear();
    fn(); // profiled rep
    Measurement m;
    m.kernels = static_cast<std::int64_t>(prof.records().size());
    for (const auto &rec : prof.records())
        m.bytes += static_cast<double>(rec.stats.bytesTotal());
    return m;
}

/** Per-rep wall times for several configurations, sampled round-robin
 * so host-level drift (frequency scaling, noisy neighbours on a
 * shared VM) lands on every configuration equally instead of biasing
 * whichever one happened to run last. Each entry of `configs` is
 * {enter-mode, body}; the median per-rep time is returned per config
 * — shared-host noise is strictly additive, so the median tracks the
 * undisturbed cost while a mean absorbs every preemption spike. */
using TimedConfig =
    std::pair<std::function<void()>, std::function<void()>>;

std::vector<double>
medianInterleaved(const std::vector<TimedConfig> &configs, int reps)
{
    std::vector<std::vector<double>> samples(configs.size());
    for (int r = 0; r < reps; ++r) {
        for (std::size_t c = 0; c < configs.size(); ++c) {
            configs[c].first();
            const MonoTime start = monoNow();
            configs[c].second();
            samples[c].push_back(secondsBetween(start, monoNow()) * 1e3);
        }
    }
    std::vector<double> medians(configs.size());
    for (std::size_t c = 0; c < configs.size(); ++c) {
        std::sort(samples[c].begin(), samples[c].end());
        medians[c] = samples[c][samples[c].size() / 2];
    }
    return medians;
}

double
serveQps(BertClassifier &clf, std::int64_t vocab, int count)
{
    ClassifierEngine engine(clf, /*pad_id=*/3);
    ServeOptions options;
    options.maxBatch = 8;
    options.maxWaitUs = 500;
    InferenceServer server(engine, BucketSpec({32, 64, 128}), options);
    Rng body(99);
    std::vector<std::future<InferReply>> futures;
    const MonoTime start = monoNow();
    for (int id = 0; id < count; ++id)
        futures.push_back(server.submit(syntheticRequest(
            body, static_cast<std::uint64_t>(id), 16 + (id % 5) * 24,
            vocab)));
    for (auto &f : futures)
        f.wait();
    return count / secondsBetween(start, monoNow());
}

} // namespace

int
main(int argc, char **argv)
{
    bool quick = false;
    std::string json_path;
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--quick") == 0)
            quick = true;
        else if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc)
            json_path = argv[++i];
    }

    const std::int64_t d_model = quick ? 128 : 256;
    const int heads = quick ? 4 : 8;
    const std::int64_t d_ff = 4 * d_model;
    const std::int64_t batch = quick ? 2 : 2;
    const std::int64_t seq = quick ? 64 : 256;
    const int reps = quick ? 5 : 30;

    Profiler prof;
    NnRuntime rt;
    rt.profiler = &prof;
    EncoderLayer layer("enc", d_model, heads, d_ff, &rt);
    Rng init(20260808);
    layer.initialize(init);

    Rng data(1);
    Tensor x(Shape({batch * seq, d_model}));
    x.fillNormal(data);
    Tensor mask(Shape({seq, seq}));

    auto eval_forward = [&]() { (void)layer.forward(x, mask, batch, seq); };

    // -- Eval forward --
    layer.setTraining(false);
    auto enter_unfused = [&]() { setFusionMode(FusionMode::Off); };
    auto enter_fused = [&]() { setFusionMode(FusionMode::On); };

    enter_unfused();
    Measurement eval_unfused = profileOnce(prof, eval_forward);
    enter_fused();
    Measurement eval_fused = profileOnce(prof, eval_forward);

    const std::vector<double> eval_ms = medianInterleaved(
        {{enter_unfused, eval_forward}, {enter_fused, eval_forward}},
        reps);
    eval_unfused.ms = eval_ms[0];
    eval_fused.ms = eval_ms[1];

    // -- Serving throughput (closed loop) --
    BertConfig config;
    config.name = "bench-fusion-serve";
    config.numLayers = 2;
    config.dModel = d_model;
    config.numHeads = heads;
    config.dFf = d_ff;
    config.vocabSize = 1024;
    config.maxPositions = 128;
    config.typeVocab = 2;
    config.batch = 1;
    config.seqLen = config.maxPositions;
    config.numClasses = 2;
    NnRuntime serve_rt;
    BertClassifier clf(config, &serve_rt);
    Rng clf_init(7);
    clf.initialize(clf_init);
    clf.setTraining(false);
    const int serve_count = quick ? 16 : 64;
    setFusionMode(FusionMode::Off);
    const double qps_unfused = serveQps(clf, config.vocabSize, serve_count);
    setFusionMode(FusionMode::On);
    const double qps_fused = serveQps(clf, config.vocabSize, serve_count);
    clearFusionModeOverride();

    // -- Report --
    const double traffic_ratio = eval_unfused.bytes / eval_fused.bytes;
    Table table("Fused kernels vs unfused oracle "
                "(d_model=" + std::to_string(d_model) +
                ", B=" + std::to_string(batch) +
                ", n=" + std::to_string(seq) + ")");
    table.setHeader({"Path", "Time", "Speedup", "Kernels", "Traffic"});
    auto row = [&](const char *label, const Measurement &m,
                   const Measurement &base) {
        char speedup[32];
        std::snprintf(speedup, sizeof(speedup), "%.2fx",
                      base.ms / m.ms);
        table.addRow({label, formatSeconds(m.ms / 1e3), speedup,
                      std::to_string(m.kernels),
                      formatBytes(m.bytes)});
    };
    row("eval unfused", eval_unfused, eval_unfused);
    row("eval fused", eval_fused, eval_unfused);
    std::printf("%s\n", table.render().c_str());

    std::printf(
        "Fig. 12 analytical prediction (from KernelStats): kernels "
        "%.2fx, memory traffic %.2fx (= roofline memory-bound upper "
        "bound); measured eval speedup %.2fx.\n",
        static_cast<double>(eval_unfused.kernels) /
            static_cast<double>(eval_fused.kernels),
        traffic_ratio, eval_unfused.ms / eval_fused.ms);
    std::printf("serving: %.1f qps unfused -> %.1f qps fused (%.2fx)\n",
                qps_unfused, qps_fused, qps_fused / qps_unfused);

    if (!json_path.empty()) {
        std::FILE *f = std::fopen(json_path.c_str(), "w");
        if (!f) {
            std::fprintf(stderr, "cannot open %s\n", json_path.c_str());
            return 1;
        }
        std::fprintf(f, "{\n  \"bench\": \"bench_fusion\",\n");
        std::fprintf(
            f,
            "  \"config\": {\"d_model\": %lld, \"heads\": %d, "
            "\"d_ff\": %lld, \"batch\": %lld, \"seq\": %lld, "
            "\"reps\": %d, \"quick\": %s},\n",
            static_cast<long long>(d_model), heads,
            static_cast<long long>(d_ff), static_cast<long long>(batch),
            static_cast<long long>(seq), reps, quick ? "true" : "false");
        std::fprintf(
            f,
            "  \"eval\": {\"unfused_ms\": %.4f, \"fused_ms\": %.4f, "
            "\"speedup\": %.3f,\n"
            "    \"kernels_unfused\": %lld, \"kernels_fused\": %lld, "
            "\"traffic_unfused_bytes\": %.0f, \"traffic_fused_bytes\": "
            "%.0f,\n"
            "    \"analytical_traffic_ratio\": %.3f, "
            "\"analytical_kernel_ratio\": %.3f},\n",
            eval_unfused.ms, eval_fused.ms,
            eval_unfused.ms / eval_fused.ms,
            static_cast<long long>(eval_unfused.kernels),
            static_cast<long long>(eval_fused.kernels),
            eval_unfused.bytes, eval_fused.bytes, traffic_ratio,
            static_cast<double>(eval_unfused.kernels) /
                static_cast<double>(eval_fused.kernels));
        std::fprintf(
            f,
            "  \"serving\": {\"unfused_qps\": %.2f, \"fused_qps\": "
            "%.2f, \"speedup\": %.3f}\n}\n",
            qps_unfused, qps_fused, qps_fused / qps_unfused);
        std::fclose(f);
        std::printf("wrote %s\n", json_path.c_str());
    }
    return 0;
}

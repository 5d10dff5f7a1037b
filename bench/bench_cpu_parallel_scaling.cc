/**
 * @file
 * Parallel scaling of the CPU substrate over the runtime thread pool:
 * speedup at 1/2/4/8 threads for the paper's Table 2b GEMM shapes
 * (linear projection GEMM plus the B*h batched attention GEMMs) and
 * for the fused-vs-unfused Adam update loops (the Fig. 12a fusion
 * study's optimizer kernels). All timing uses the monotonic
 * Stopwatch (std::chrono::steady_clock).
 *
 * Usage: bench_cpu_parallel_scaling [--quick]
 *   --quick shrinks shapes and the thread sweep for CI smoke runs.
 */

#include <cstdio>
#include <cstring>
#include <functional>
#include <string>
#include <thread>
#include <vector>

#include "core/bertprof.h"
#include "ops/gemm.h"
#include "runtime/config.h"
#include "util/rng.h"
#include "util/stopwatch.h"

using namespace bertprof;

namespace {

/** Best-of-reps wall time of fn() in seconds (monotonic clock). */
Seconds
timeBest(int reps, const std::function<void()> &fn)
{
    Seconds best = 0.0;
    for (int r = 0; r < reps; ++r) {
        Stopwatch watch;
        fn();
        const Seconds t = watch.elapsed();
        if (r == 0 || t < best)
            best = t;
    }
    return best;
}

struct Case {
    std::string name;
    std::function<void()> run;
    int reps = 3;
};

} // namespace

int
main(int argc, char **argv)
{
    const bool quick = argc > 1 && std::strcmp(argv[1], "--quick") == 0;

    // Phase-1 BERT-Large geometry (Table 2b): n = 128, h = 16,
    // d_head = 64, d_model = 1024. The batch is sized so the full
    // sweep stays tractable on the blocked reference kernels.
    const std::int64_t seq = quick ? 32 : 128;
    const std::int64_t heads = 16;
    const std::int64_t batch = quick ? 2 : 8; // mini-batch B
    const std::int64_t groups = batch * heads;
    const std::int64_t d_head = 64;
    const std::int64_t d_model = quick ? 256 : 1024;
    const std::int64_t tokens = batch * seq;
    const std::int64_t adam_numel = quick ? 1 << 16 : 1 << 21;
    const int reps = quick ? 1 : 3;

    Rng rng(1234);
    // Attention score: [B*h] n x n x d_head.
    Tensor q(Shape({groups, seq, d_head})), kT(Shape({groups, seq, d_head}));
    Tensor scores(Shape({groups, seq, seq}));
    q.fillNormal(rng);
    kT.fillNormal(rng);
    // Attention output: [B*h] n x d_head x n.
    Tensor probs(Shape({groups, seq, seq})), v(Shape({groups, seq, d_head}));
    Tensor ctx(Shape({groups, seq, d_head}));
    probs.fillUniform(rng);
    v.fillNormal(rng);
    // Linear projection: (B*n) x d_model x d_model.
    Tensor x(Shape({tokens, d_model})), w(Shape({d_model, d_model}));
    Tensor y(Shape({tokens, d_model}));
    x.fillNormal(rng);
    w.fillNormal(rng);

    // Optimizer loops: one big flat parameter per optimizer, built
    // and filled once so the timed region is step() alone (the
    // per-case warm-up run allocates the moment state).
    Parameter adam_p("bench.adam", Shape({adam_numel}));
    Parameter unfused_p("bench.unfused_adam", Shape({adam_numel}));
    {
        Rng prng(77);
        adam_p.value.fillNormal(prng);
        adam_p.grad.fillNormal(prng);
        unfused_p.value = adam_p.value.clone();
        unfused_p.grad = adam_p.grad.clone();
    }
    const OptimizerConfig opt_config;
    Adam adam(opt_config);
    UnfusedAdam unfused_adam(opt_config);
    const auto run_optimizer = [](Optimizer &opt, Parameter &p) {
        for (int s = 0; s < 2; ++s)
            opt.step({&p});
    };

    std::vector<Case> cases;
    cases.push_back({"attn_score bGEMM [" + std::to_string(groups) + "] " +
                         std::to_string(seq) + "x" + std::to_string(seq) +
                         "x" + std::to_string(d_head),
                     [&] { batchedGemm(q, kT, scores, false, true); }, reps});
    cases.push_back({"attn_out   bGEMM [" + std::to_string(groups) + "] " +
                         std::to_string(seq) + "x" + std::to_string(d_head) +
                         "x" + std::to_string(seq),
                     [&] { batchedGemm(probs, v, ctx); }, reps});
    cases.push_back({"linear      GEMM " + std::to_string(tokens) + "x" +
                         std::to_string(d_model) + "x" +
                         std::to_string(d_model),
                     [&] { gemm(x, w, y); }, quick ? 1 : 2});
    cases.push_back({"adam fused   " + std::to_string(adam_numel) + " elems",
                     [&] { run_optimizer(adam, adam_p); }, reps});
    cases.push_back({"adam unfused " + std::to_string(adam_numel) + " elems",
                     [&] { run_optimizer(unfused_adam, unfused_p); },
                     reps});

    const std::vector<int> thread_counts =
        quick ? std::vector<int>{1, 2} : std::vector<int>{1, 2, 4, 8};

    std::printf("CPU parallel scaling (work-stealing pool, "
                "deterministic chunking)\n");
    std::printf("hardware_concurrency = %u\n",
                std::thread::hardware_concurrency());

    Table table("Speedup over 1 thread (best of " + std::to_string(reps) +
                ", steady_clock seconds)");
    std::vector<std::string> header = {"Kernel"};
    for (const int t : thread_counts)
        header.push_back("t=" + std::to_string(t));
    header.push_back("speedup@4" );
    table.setHeader(header);

    for (const Case &c : cases) {
        std::vector<Seconds> seconds;
        for (const int t : thread_counts) {
            setNumThreads(t);
            c.run(); // warm-up: page in buffers, spin up workers
            seconds.push_back(timeBest(c.reps, c.run));
        }
        setNumThreads(0);

        std::vector<std::string> row = {c.name};
        for (const Seconds s : seconds)
            row.push_back(formatSeconds(s));
        double speedup4 = 0.0;
        for (std::size_t i = 0; i < thread_counts.size(); ++i)
            if (thread_counts[i] == 4)
                speedup4 = seconds[0] / seconds[i];
        char buf[32];
        std::snprintf(buf, sizeof(buf), "%.2fx", speedup4);
        row.push_back(thread_counts.back() >= 4 ? buf : "n/a");
        table.addRow(row);
    }
    std::printf("%s\n", table.render().c_str());
    std::printf(
        "Note: speedup is bounded by the physical cores of this host;\n"
        "on a 1-core container all thread counts time the same serial\n"
        "work plus pool overhead. Outputs are bitwise identical at\n"
        "every thread count (see tests/test_parallel_determinism.cc).\n");
    return 0;
}

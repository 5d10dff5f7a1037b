/**
 * @file
 * Packed microkernel vs. reference GEMM engine over the paper's
 * Table 2b BERT-Large GEMM shapes — the kernels that dominate
 * training time (Table 1, Figs. 3-4). Every shape family appears
 * with the trans_a/trans_b combination the model actually issues
 * (attention's K^T score GEMM, the backward weight gradients'
 * A^T B), plus one (T,T) case so all four combinations are covered.
 * Reports GFLOP/s per engine and the packed-over-reference speedup,
 * single-threaded so the comparison isolates the per-core hot path.
 * The packed engine runs the ISA variant selected at start-up (named
 * in the header line and the JSON stamp); every other variant the
 * host supports is also timed through its own entry point.
 *
 * Usage: bench_gemm_microkernel [--quick] [--json <path>]
 *   --quick shrinks the mini-batch and repetitions for CI smoke runs.
 *   --json writes a machine-readable results file (see
 *   scripts/run_bench.sh, which snapshots it into results/).
 */

#include <cstdio>
#include <cstring>
#include <functional>
#include <string>
#include <vector>

#include "core/bertprof.h"
#include "ops/gemm.h"
#include "ops/gemm_microkernel.h"
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

struct ShapeCase {
    std::string name;
    std::int64_t m, n, k;
    std::int64_t batch; // 1 = plain gemm, >1 = batchedGemm
    bool trans_a, trans_b;
};

struct Result {
    ShapeCase shape;
    double ref_gflops = 0.0;
    double packed_gflops = 0.0;
    std::vector<double> variant_gflops; // one per supportedVariants()
    double speedup = 0.0;
    float max_abs_diff = 0.0f;
};

std::vector<const GemmVariant *>
supportedVariants()
{
    std::vector<const GemmVariant *> out;
    for (const GemmVariant &v : gemmVariants())
        if (v.hostSupports())
            out.push_back(&v);
    return out;
}

std::string
tileLabel(const GemmVariant &v)
{
    return std::to_string(v.mr) + "x" + std::to_string(v.nr);
}

/** The shape's GEMM through one variant's entry point, group by group
 * as batchedGemm() issues it. */
void
runVariant(const GemmVariant &v, const ShapeCase &s, const Tensor &a,
           const Tensor &b, Tensor &c)
{
    for (std::int64_t g = 0; g < s.batch; ++g)
        v.rows(a.data() + g * s.m * s.k, b.data() + g * s.k * s.n,
               c.data() + g * s.m * s.n, s.m, s.n, s.k, s.trans_a,
               s.trans_b, 1.0f, 0.0f, 0, s.m);
}

std::string
transLabel(const ShapeCase &s)
{
    return std::string(s.trans_a ? "T" : "N") + (s.trans_b ? "T" : "N");
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

    // BERT-Large phase-1 geometry (Table 2b): n = 128, h = 16,
    // d_head = 64, d_model = 1024, d_ff = 4096. The mini-batch is
    // sized so the reference sweep stays tractable on one core.
    const std::int64_t seq = 128;
    const std::int64_t heads = 16;
    const std::int64_t batch = quick ? 1 : 4;
    const std::int64_t groups = batch * heads;
    const std::int64_t d_head = 64;
    const std::int64_t d_model = quick ? 256 : 1024;
    const std::int64_t d_ff = 4 * d_model;
    const std::int64_t tokens = batch * seq;
    const int reps = quick ? 1 : 3;

    const std::vector<ShapeCase> shapes = {
        // Encoder linear projections (QKV/output): FWD x W^T, the
        // activation gradient (N,N), and the weight gradient (T,N).
        {"linear FWD", tokens, d_model, d_model, 1, false, true},
        {"linear BWD-act", tokens, d_model, d_model, 1, false, false},
        {"linear BWD-wgt", d_model, d_model, tokens, 1, true, false},
        // Attention score QK^T and its two backward forms, batched
        // over B*h heads.
        {"attn score FWD", seq, seq, d_head, groups, false, true},
        {"attn out FWD", seq, d_head, seq, groups, false, false},
        {"attn dV", seq, d_head, seq, groups, true, false},
        // Feed-forward pair.
        {"FC-1 FWD", tokens, d_ff, d_model, 1, false, true},
        {"FC-2 FWD", tokens, d_model, d_ff, 1, false, true},
        // (T,T) completes the transpose coverage at the linear shape.
        {"linear (T,T)", tokens, d_model, d_model, 1, true, true},
    };

    setNumThreads(1); // isolate the per-core hot path
    const GemmVariant &selected = selectedGemmVariant();
    const std::vector<const GemmVariant *> variants = supportedVariants();

    std::vector<Result> results;
    for (const ShapeCase &s : shapes) {
        Rng rng(90210);
        const Shape a_shape =
            s.batch > 1
                ? (s.trans_a ? Shape({s.batch, s.k, s.m})
                             : Shape({s.batch, s.m, s.k}))
                : (s.trans_a ? Shape({s.k, s.m}) : Shape({s.m, s.k}));
        const Shape b_shape =
            s.batch > 1
                ? (s.trans_b ? Shape({s.batch, s.n, s.k})
                             : Shape({s.batch, s.k, s.n}))
                : (s.trans_b ? Shape({s.n, s.k}) : Shape({s.k, s.n}));
        const Shape c_shape = s.batch > 1 ? Shape({s.batch, s.m, s.n})
                                          : Shape({s.m, s.n});
        Tensor a(a_shape), b(b_shape), c(c_shape);
        a.fillNormal(rng);
        b.fillNormal(rng);

        const auto run = [&] {
            if (s.batch > 1)
                batchedGemm(a, b, c, s.trans_a, s.trans_b);
            else
                gemm(a, b, c, s.trans_a, s.trans_b);
        };
        const double flops = 2.0 * static_cast<double>(s.m) *
                             static_cast<double>(s.n) *
                             static_cast<double>(s.k) *
                             static_cast<double>(s.batch);

        Result r;
        r.shape = s;

        setGemmImpl(GemmImpl::Reference);
        run(); // warm-up: page in buffers
        const Seconds t_ref = timeBest(reps, run);
        Tensor c_ref = c.clone();

        setGemmImpl(GemmImpl::Packed);
        run();
        const Seconds t_packed = timeBest(reps, run);
        r.max_abs_diff = maxAbsDiff(c, c_ref); // engines must agree

        for (const GemmVariant *v : variants) {
            const auto run_variant = [&] { runVariant(*v, s, a, b, c); };
            run_variant();
            r.variant_gflops.push_back(flops / timeBest(reps, run_variant) *
                                       1e-9);
        }

        r.ref_gflops = flops / t_ref * 1e-9;
        r.packed_gflops = flops / t_packed * 1e-9;
        r.speedup = t_ref / t_packed;
        results.push_back(r);
    }
    clearGemmImplOverride();
    setNumThreads(0);

    std::printf("packed engine variant: %s (%s tile); host supports:",
                selected.name, tileLabel(selected).c_str());
    for (const GemmVariant *v : variants)
        std::printf(" %s", v->name);
    std::printf("\n");

    Table table("GEMM engines, Table 2b BERT-Large shapes "
                "(1 thread, best of " +
                std::to_string(reps) + "; B=" + std::to_string(batch) +
                ", n=" + std::to_string(seq) +
                ", d_model=" + std::to_string(d_model) + ")");
    std::vector<std::string> header = {"Kernel", "tAtB", "M x N x K [b]",
                                       "ref GF/s", "packed GF/s"};
    for (const GemmVariant *v : variants)
        header.push_back(std::string(v->name) + " GF/s");
    header.push_back("speedup");
    header.push_back("max|diff|");
    table.setHeader(header);
    char buf[64];
    for (const Result &r : results) {
        std::vector<std::string> row;
        row.push_back(r.shape.name);
        row.push_back(transLabel(r.shape));
        std::string dims = std::to_string(r.shape.m) + " x " +
                           std::to_string(r.shape.n) + " x " +
                           std::to_string(r.shape.k);
        if (r.shape.batch > 1)
            dims += " [" + std::to_string(r.shape.batch) + "]";
        row.push_back(dims);
        std::snprintf(buf, sizeof(buf), "%.2f", r.ref_gflops);
        row.push_back(buf);
        std::snprintf(buf, sizeof(buf), "%.2f", r.packed_gflops);
        row.push_back(buf);
        for (const double gf : r.variant_gflops) {
            std::snprintf(buf, sizeof(buf), "%.2f", gf);
            row.push_back(buf);
        }
        std::snprintf(buf, sizeof(buf), "%.2fx", r.speedup);
        row.push_back(buf);
        std::snprintf(buf, sizeof(buf), "%.2e", r.max_abs_diff);
        row.push_back(buf);
        table.addRow(row);
    }
    std::printf("%s\n", table.render().c_str());
    std::printf("packed = gemm()/batchedGemm() on the selected variant; "
                "per-variant columns call each entry point directly.\n"
                "Both engines run the identical deterministic row "
                "partition; max|diff| is rounding from their different\n"
                "association orders, not nondeterminism "
                "(tests/test_gemm_microkernel.cc cross-checks both).\n");

    if (!json_path.empty()) {
        std::FILE *f = std::fopen(json_path.c_str(), "w");
        if (!f) {
            std::fprintf(stderr, "cannot open %s\n", json_path.c_str());
            return 1;
        }
        std::fprintf(f, "{\n  \"bench\": \"bench_gemm_microkernel\",\n");
        std::fprintf(f, "  \"config\": {\"threads\": 1, \"reps\": %d, "
                        "\"batch\": %lld, \"seq\": %lld, \"d_model\": %lld, "
                        "\"quick\": %s},\n",
                     reps, static_cast<long long>(batch),
                     static_cast<long long>(seq),
                     static_cast<long long>(d_model),
                     quick ? "true" : "false");
        std::fprintf(f, "  \"variant\": {\"selected\": \"%s\", "
                        "\"tile\": \"%s\", \"supported\": [",
                     selected.name, tileLabel(selected).c_str());
        for (std::size_t i = 0; i < variants.size(); ++i)
            std::fprintf(f, "%s\"%s\"", i > 0 ? ", " : "",
                         variants[i]->name);
        std::fprintf(f, "]},\n");
        std::fprintf(f, "  \"shapes\": [\n");
        for (std::size_t i = 0; i < results.size(); ++i) {
            const Result &r = results[i];
            std::fprintf(
                f,
                "    {\"name\": \"%s\", \"trans\": \"%s\", \"m\": %lld, "
                "\"n\": %lld, \"k\": %lld, \"batch\": %lld, "
                "\"ref_gflops\": %.4f, \"packed_gflops\": %.4f, "
                "\"speedup\": %.4f, \"max_abs_diff\": %.6e, "
                "\"variant_gflops\": {",
                r.shape.name.c_str(), transLabel(r.shape).c_str(),
                static_cast<long long>(r.shape.m),
                static_cast<long long>(r.shape.n),
                static_cast<long long>(r.shape.k),
                static_cast<long long>(r.shape.batch), r.ref_gflops,
                r.packed_gflops, r.speedup,
                static_cast<double>(r.max_abs_diff));
            for (std::size_t v = 0; v < variants.size(); ++v)
                std::fprintf(f, "%s\"%s\": %.4f", v > 0 ? ", " : "",
                             variants[v]->name, r.variant_gflops[v]);
            std::fprintf(f, "}}%s\n", i + 1 < results.size() ? "," : "");
        }
        std::fprintf(f, "  ]\n}\n");
        std::fclose(f);
        std::printf("wrote %s\n", json_path.c_str());
    }
    return 0;
}

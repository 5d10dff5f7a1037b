/**
 * Fused-kernel parity suite: every (eval-only) fused kernel against
 * its unfused oracle chain at 1 and 8 threads, training through
 * EncoderLayer bitwise independent of the fusion knob, eval logits
 * parity through BertClassifier, and serve end-to-end parity. The
 * parity class per kernel (bitwise versus tolerance) is the contract
 * documented in ops/fused.h.
 */

#include <algorithm>
#include <cmath>
#include <cstring>
#include <future>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "nn/encoder_layer.h"
#include "ops/activation.h"
#include "ops/elementwise.h"
#include "ops/fused.h"
#include "ops/gemm.h"
#include "ops/layernorm.h"
#include "ops/reshape.h"
#include "ops/softmax.h"
#include "runtime/config.h"
#include "runtime/profiler.h"
#include "serve/server.h"
#include "serve/traffic.h"
#include "test_helpers.h"

namespace bertprof {
namespace {

using ::bertprof::testing::tinyBertConfig;

constexpr std::int64_t kPadId = 3;

/** Restore the process-wide knobs this suite sweeps. */
struct KnobGuard {
    ~KnobGuard()
    {
        clearFusionModeOverride();
        clearGemmImplOverride();
        setNumThreads(0);
    }
};

bool
bitwiseEqual(const Tensor &a, const Tensor &b)
{
    return a.shape() == b.shape() &&
           std::memcmp(a.data(), b.data(),
                       static_cast<std::size_t>(a.numel()) *
                           sizeof(float)) == 0;
}

const int kThreadSweep[] = {1, 8};

TEST(FusedKernels, BiasGeluBitwiseMatchesUnfused)
{
    KnobGuard guard;
    Rng rng(11);
    Tensor in(Shape({64, 48}));
    Tensor bias(Shape({48}));
    in.fillNormal(rng);
    bias.fillNormal(rng);

    for (int threads : kThreadSweep) {
        setNumThreads(threads);
        Tensor pre_ref(in.shape());
        Tensor out_ref(in.shape());
        biasForward(in, bias, pre_ref);
        geluForward(pre_ref, out_ref);

        Tensor out(in.shape());
        fusedBiasGeluForward(in, bias, out);
        EXPECT_TRUE(bitwiseEqual(out, out_ref)) << threads << " threads";
    }
}

TEST(FusedKernels, ResidualLayerNormBitwiseMatchesUnfused)
{
    KnobGuard guard;
    Rng rng(12);
    Tensor a(Shape({32, 64}));
    Tensor b(Shape({32, 64}));
    Tensor gamma(Shape({64}));
    Tensor beta(Shape({64}));
    a.fillNormal(rng);
    b.fillNormal(rng);
    gamma.fillNormal(rng);
    beta.fillNormal(rng);

    for (int threads : kThreadSweep) {
        setNumThreads(threads);
        Tensor sum_ref(a.shape());
        Tensor out_ref(a.shape());
        Tensor mean_ref(Shape({32}));
        Tensor rstd_ref(Shape({32}));
        addForward(a, b, sum_ref);
        layerNormForward(sum_ref, gamma, beta, out_ref, mean_ref,
                         rstd_ref);

        Tensor out(a.shape());
        Tensor mean(Shape({32}));
        Tensor rstd(Shape({32}));
        fusedResidualLayerNormForward(a, b, gamma, beta, out, mean, rstd);
        EXPECT_TRUE(bitwiseEqual(out, out_ref)) << threads << " threads";
        EXPECT_TRUE(bitwiseEqual(mean, mean_ref));
        EXPECT_TRUE(bitwiseEqual(rstd, rstd_ref));
    }
}

TEST(FusedKernels, QkvForwardBitwiseMatchesUnfusedOnBothEngines)
{
    KnobGuard guard;
    const std::int64_t batch = 2, seq = 16, d_model = 32;
    const std::int64_t heads = 4;
    Rng rng(13);
    Tensor x(Shape({batch * seq, d_model}));
    x.fillNormal(rng);
    Tensor w[3] = {Tensor(Shape({d_model, d_model})),
                   Tensor(Shape({d_model, d_model})),
                   Tensor(Shape({d_model, d_model}))};
    Tensor b[3] = {Tensor(Shape({d_model})), Tensor(Shape({d_model})),
                   Tensor(Shape({d_model}))};
    for (int i = 0; i < 3; ++i) {
        w[i].fillNormal(rng);
        b[i].fillNormal(rng);
    }

    const Shape split_shape({batch * heads, seq, d_model / heads});
    for (GemmImpl impl : {GemmImpl::Packed, GemmImpl::Reference}) {
        setGemmImpl(impl);
        for (int threads : kThreadSweep) {
            setNumThreads(threads);
            Tensor ref[3] = {Tensor(split_shape), Tensor(split_shape),
                             Tensor(split_shape)};
            for (int i = 0; i < 3; ++i) {
                Tensor proj(Shape({batch * seq, d_model}));
                gemm(x, w[i], proj, false, true);
                biasForward(proj, b[i], proj);
                splitHeads(proj, batch, seq, heads, ref[i]);
            }

            Tensor q3d(split_shape), k3d(split_shape), v3d(split_shape);
            fusedQkvForward(x, w[0], w[1], w[2], b[0], b[1], b[2], batch,
                            seq, heads, q3d, k3d, v3d);
            EXPECT_TRUE(bitwiseEqual(q3d, ref[0]))
                << gemmImplName(impl) << " " << threads << " threads";
            EXPECT_TRUE(bitwiseEqual(k3d, ref[1]))
                << gemmImplName(impl) << " " << threads << " threads";
            EXPECT_TRUE(bitwiseEqual(v3d, ref[2]))
                << gemmImplName(impl) << " " << threads << " threads";
        }
    }
}

TEST(FusedKernels, AttentionEvalCloseToUnfusedChain)
{
    KnobGuard guard;
    const std::int64_t batch = 2, seq = 12, d_model = 32;
    const std::int64_t heads = 4, dh = d_model / heads;
    const float scale = 1.0f / std::sqrt(static_cast<float>(dh));
    Rng rng(15);
    const Shape split_shape({batch * heads, seq, dh});
    Tensor q3d(split_shape), k3d(split_shape), v3d(split_shape);
    q3d.fillNormal(rng);
    k3d.fillNormal(rng);
    v3d.fillNormal(rng);

    // Broadcast [n, n] mask and per-sequence [B, n, n] mask, each
    // with a masked-out tail (large negative additive values).
    Tensor mask2(Shape({seq, seq}));
    for (std::int64_t i = 0; i < seq; ++i)
        for (std::int64_t j = 0; j < seq; ++j)
            mask2.at(i, j) = (j >= seq - 2) ? -1e9f : 0.0f;
    Tensor mask3(Shape({batch, seq, seq}));
    for (std::int64_t s = 0; s < batch; ++s)
        for (std::int64_t i = 0; i < seq; ++i)
            for (std::int64_t j = 0; j < seq; ++j)
                mask3.at(s * seq * seq + i * seq + j) =
                    (j >= seq - 1 - s) ? -1e9f : 0.0f;

    for (const Tensor *mask : {&mask2, &mask3}) {
        const bool per_seq = mask->shape().rank() == 3;
        for (int threads : kThreadSweep) {
            setNumThreads(threads);
            Tensor scores(Shape({batch * heads, seq, seq}));
            batchedGemm(q3d, k3d, scores, false, true);
            scaleForward(scores, scale, scores);
            if (per_seq)
                batchMaskAddForward(scores, *mask, heads, scores);
            else
                maskAddForward(scores, *mask, scores);
            Tensor probs(scores.shape());
            softmaxForward(scores, probs);
            Tensor ctx_ref(split_shape);
            batchedGemm(probs, v3d, ctx_ref);

            Tensor ctx(split_shape);
            fusedAttentionEvalForward(q3d, k3d, v3d, *mask, heads, scale,
                                      ctx);
            EXPECT_LT(maxAbsDiff(ctx, ctx_ref), 1e-5)
                << (per_seq ? "per-seq" : "broadcast") << " mask at "
                << threads << " threads";
        }
    }
}

/** Two identically-seeded encoder layers, one forward each. */
struct LayerPair {
    NnRuntime rt_a, rt_b;
    EncoderLayer a, b;

    LayerPair()
        : a("enc", 32, 4, 64, &rt_a), b("enc", 32, 4, 64, &rt_b)
    {
        Rng init_a(7), init_b(7);
        a.initialize(init_a);
        b.initialize(init_b);
        rt_a.dropoutP = 0.1f;
        rt_b.dropoutP = 0.1f;
    }
};

TEST(FusionTraining, ForwardGradsAndDxBitwiseIndependentOfFusion)
{
    // Fusion is eval-only: a training step runs exactly the unfused
    // kernels whatever the knob says, so the output, every parameter
    // grad and dx are bitwise equal.
    KnobGuard guard;
    for (int threads : kThreadSweep) {
        setNumThreads(threads);
        LayerPair pair;
        Rng data(21);
        Tensor x(Shape({2 * 16, 32}));
        x.fillNormal(data);
        Tensor mask(Shape({16, 16}));

        setFusionMode(FusionMode::Off);
        Tensor y_ref = pair.a.forward(x, mask, 2, 16);
        setFusionMode(FusionMode::On);
        Tensor y = pair.b.forward(x, mask, 2, 16);
        EXPECT_TRUE(bitwiseEqual(y, y_ref)) << threads << " threads";

        Tensor dout(y.shape());
        Rng grad_rng(22);
        dout.fillNormal(grad_rng);
        pair.a.zeroGrad();
        pair.b.zeroGrad();
        setFusionMode(FusionMode::Off);
        Tensor dx_ref = pair.a.backward(dout);
        setFusionMode(FusionMode::On);
        Tensor dx = pair.b.backward(dout);

        std::vector<Parameter *> pa = pair.a.parameters();
        std::vector<Parameter *> pb = pair.b.parameters();
        ASSERT_EQ(pa.size(), pb.size());
        for (std::size_t i = 0; i < pa.size(); ++i)
            EXPECT_TRUE(bitwiseEqual(pb[i]->grad, pa[i]->grad))
                << pa[i]->name << " at " << threads << " threads";
        EXPECT_TRUE(bitwiseEqual(dx, dx_ref)) << threads << " threads";
    }
}

TEST(FusionTrainingDeath, EvalOnlyEntryPointsRefuseTrainingModules)
{
    // The fused forwards retain no state for backward, so a training-
    // mode module must never reach them.
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
    NnRuntime rt;
    Linear fc("fc", 8, 8, &rt);
    LayerNorm ln("ln", 8, &rt);
    Tensor x(Shape({2, 8}));
    EXPECT_EXIT((void)fc.forwardGemm(x), ::testing::ExitedWithCode(1),
                "requirement failed");
    EXPECT_EXIT((void)ln.forwardFusedResidual(x, x),
                ::testing::ExitedWithCode(1), "requirement failed");
}

TEST(FusionEval, EncoderLayerFusedCloseToUnfused)
{
    KnobGuard guard;
    for (int threads : kThreadSweep) {
        setNumThreads(threads);
        LayerPair pair;
        pair.a.setTraining(false);
        pair.b.setTraining(false);
        Rng data(23);
        Tensor x(Shape({2 * 16, 32}));
        x.fillNormal(data);
        Tensor mask(Shape({16, 16}));

        setFusionMode(FusionMode::Off);
        Tensor y_ref = pair.a.forward(x, mask, 2, 16);
        setFusionMode(FusionMode::On);
        Tensor y = pair.b.forward(x, mask, 2, 16);
        // Fused attention reassociates the score/context dots.
        EXPECT_LT(maxAbsDiff(y, y_ref), 1e-4) << threads << " threads";
    }
}

/** Eval logits of a tiny classifier over a fixed batch. */
Tensor
classifierLogits(BertClassifier &clf, const BertConfig &config)
{
    const std::int64_t batch = 2, seq = 16;
    std::vector<std::int64_t> tokens, segments;
    Rng rng(31);
    for (std::int64_t i = 0; i < batch * seq; ++i) {
        tokens.push_back(rng.uniformInt(0, config.vocabSize - 1));
        segments.push_back(i % 2);
    }
    const std::vector<std::int64_t> lengths = {seq, seq - 3};
    return clf.forwardLogitsEval(tokens, segments, batch, seq, lengths);
}

TEST(FusionEval, ClassifierLogitsCloseAndThreadInvariant)
{
    KnobGuard guard;
    const BertConfig config = tinyBertConfig();
    NnRuntime rt;
    BertClassifier clf(config, &rt);
    Rng init(32);
    clf.initialize(init);
    clf.setTraining(false);

    setNumThreads(1);
    setFusionMode(FusionMode::Off);
    Tensor ref = classifierLogits(clf, config);
    setFusionMode(FusionMode::On);
    Tensor fused1 = classifierLogits(clf, config);
    EXPECT_LT(maxAbsDiff(fused1, ref), 1e-4);

    // Fused eval is bitwise thread-count invariant (deterministic
    // parallelFor chunking), like every other kernel in the repo.
    setNumThreads(8);
    Tensor fused8 = classifierLogits(clf, config);
    EXPECT_TRUE(bitwiseEqual(fused8, fused1));
    setFusionMode(FusionMode::Off);
    Tensor ref8 = classifierLogits(clf, config);
    EXPECT_TRUE(bitwiseEqual(ref8, ref));
}

TEST(FusionEval, ServeEngineConstructionDoesNotChangeFusedBits)
{
    // Fused eval is one eager path: building a serve engine over the
    // model must not reroute it or change a single bit.
    KnobGuard guard;
    const BertConfig config = tinyBertConfig();
    NnRuntime rt;
    BertClassifier clf(config, &rt);
    Rng init(33);
    clf.initialize(init);
    clf.setTraining(false);

    setFusionMode(FusionMode::On);
    const Tensor before = classifierLogits(clf, config);
    ClassifierEngine engine(clf, kPadId);
    const Tensor after = classifierLogits(clf, config);
    EXPECT_TRUE(bitwiseEqual(after, before));
}

/** Names of the kernels one eval forward of `layer` records. */
std::vector<std::string>
evalKernelNames(EncoderLayer &layer, NnRuntime &rt, const Tensor &x,
                const Tensor &mask, Profiler &prof)
{
    prof.clear();
    rt.profiler = &prof;
    layer.forward(x, mask, 2, 16);
    rt.profiler = nullptr;
    std::vector<std::string> names;
    for (const auto &rec : prof.records())
        names.push_back(rec.name);
    return names;
}

bool
contains(const std::vector<std::string> &names, const std::string &name)
{
    return std::find(names.begin(), names.end(), name) != names.end();
}

TEST(FusionEval, EagerFusedAttentionRunsOnlyInFusedEval)
{
    KnobGuard guard;
    LayerPair pair;
    pair.a.setTraining(false);
    Rng data(24);
    Tensor x(Shape({2 * 16, 32}));
    x.fillNormal(data);
    Tensor mask(Shape({16, 16}));
    Profiler prof;

    setFusionMode(FusionMode::On);
    const auto fused = evalKernelNames(pair.a, pair.rt_a, x, mask, prof);
    EXPECT_TRUE(contains(fused, "attn.qkv.fwd"));
    EXPECT_TRUE(contains(fused, "attn.fused.fwd"));
    EXPECT_FALSE(contains(fused, "attn.score.fwd"));

    setFusionMode(FusionMode::Off);
    const auto unfused = evalKernelNames(pair.a, pair.rt_a, x, mask, prof);
    EXPECT_FALSE(contains(unfused, "attn.qkv.fwd"));
    EXPECT_FALSE(contains(unfused, "attn.fused.fwd"));
    EXPECT_TRUE(contains(unfused, "attn.score.fwd"));

    // Training runs the unfused chain with fusion on: separate Q/K/V
    // projections and materialized scores (backward needs the probs).
    pair.a.setTraining(true);
    setFusionMode(FusionMode::On);
    const auto train = evalKernelNames(pair.a, pair.rt_a, x, mask, prof);
    EXPECT_FALSE(contains(train, "attn.qkv.fwd"));
    EXPECT_FALSE(contains(train, "attn.fused.fwd"));
    EXPECT_TRUE(contains(train, "attn.score.fwd"));
    EXPECT_FALSE(contains(train, "bias_gelu.fwd"));
    for (const std::string &name : train)
        EXPECT_EQ(name.find("res_ln"), std::string::npos) << name;
}

TEST(FusionEval, FusedEvalRunsFewerKernelsAndMovesFewerBytes)
{
    // Fig. 12's claim on the substrate: fusion cuts both the kernel
    // count and the KernelStats memory traffic of an eval forward.
    KnobGuard guard;
    LayerPair pair;
    pair.a.setTraining(false);
    Rng data(25);
    Tensor x(Shape({2 * 16, 32}));
    x.fillNormal(data);
    Tensor mask(Shape({16, 16}));

    auto traffic = [](const Profiler &prof) {
        double bytes = 0.0;
        for (const auto &rec : prof.records())
            bytes += static_cast<double>(rec.stats.bytesTotal());
        return bytes;
    };
    Profiler prof;
    setFusionMode(FusionMode::Off);
    const auto unfused = evalKernelNames(pair.a, pair.rt_a, x, mask, prof);
    const double unfused_bytes = traffic(prof);
    setFusionMode(FusionMode::On);
    const auto fused = evalKernelNames(pair.a, pair.rt_a, x, mask, prof);
    const double fused_bytes = traffic(prof);

    EXPECT_LT(fused.size(), unfused.size());
    EXPECT_GT(fused_bytes, 0.0);
    EXPECT_LT(fused_bytes, unfused_bytes);
}

TEST(FusionEval, EncoderLayerFusedIsThreadInvariantAndRepeatable)
{
    KnobGuard guard;
    LayerPair pair;
    pair.a.setTraining(false);
    Rng data(26);
    Tensor x(Shape({2 * 16, 32}));
    x.fillNormal(data);
    Tensor mask(Shape({16, 16}));

    setFusionMode(FusionMode::On);
    setNumThreads(1);
    const Tensor y1 = pair.a.forward(x, mask, 2, 16);
    setNumThreads(8);
    const Tensor y8 = pair.a.forward(x, mask, 2, 16);
    const Tensor y8_again = pair.a.forward(x, mask, 2, 16);
    EXPECT_TRUE(bitwiseEqual(y8, y1));
    EXPECT_TRUE(bitwiseEqual(y8_again, y8));
}

TEST(FusionEval, SwitchingModesLeavesNoState)
{
    // An unfused eval forward after a fused one must match a fresh
    // unfused forward bit for bit, and vice versa.
    KnobGuard guard;
    LayerPair pair;
    pair.a.setTraining(false);
    Rng data(27);
    Tensor x(Shape({2 * 16, 32}));
    x.fillNormal(data);
    Tensor mask(Shape({16, 16}));

    setFusionMode(FusionMode::Off);
    const Tensor off_first = pair.a.forward(x, mask, 2, 16);
    setFusionMode(FusionMode::On);
    const Tensor on_first = pair.a.forward(x, mask, 2, 16);
    setFusionMode(FusionMode::Off);
    const Tensor off_second = pair.a.forward(x, mask, 2, 16);
    setFusionMode(FusionMode::On);
    const Tensor on_second = pair.a.forward(x, mask, 2, 16);
    EXPECT_TRUE(bitwiseEqual(off_second, off_first));
    EXPECT_TRUE(bitwiseEqual(on_second, on_first));
}

TEST(FusionEval, SequenceBitsIndependentOfBatchmates)
{
    // With a per-sequence mask, a sequence's fused eval output must
    // not depend on what else shares its batch: the property the
    // serving padding-invariance gate rests on, at the layer level.
    KnobGuard guard;
    const std::int64_t seq = 16, d_model = 32;
    LayerPair pair;
    pair.a.setTraining(false);
    Rng data(28);
    Tensor x(Shape({2 * seq, d_model}));
    x.fillNormal(data);
    Tensor mask2(Shape({2, seq, seq}));
    for (std::int64_t s = 0; s < 2; ++s)
        for (std::int64_t i = 0; i < seq; ++i)
            for (std::int64_t j = 0; j < seq; ++j)
                mask2.at(s * seq * seq + i * seq + j) =
                    (j >= seq - 3 * s) ? -1e9f : 0.0f;

    Tensor x0(Shape({seq, d_model}));
    std::memcpy(x0.data(), x.data(),
                static_cast<std::size_t>(x0.numel()) * sizeof(float));
    Tensor mask1(Shape({1, seq, seq}));
    std::memcpy(mask1.data(), mask2.data(),
                static_cast<std::size_t>(mask1.numel()) * sizeof(float));

    setFusionMode(FusionMode::On);
    for (int threads : kThreadSweep) {
        setNumThreads(threads);
        const Tensor pair_out = pair.a.forward(x, mask2, 2, seq);
        const Tensor solo_out = pair.a.forward(x0, mask1, 1, seq);
        EXPECT_EQ(std::memcmp(solo_out.data(), pair_out.data(),
                              static_cast<std::size_t>(solo_out.numel()) *
                                  sizeof(float)),
                  0)
            << threads << " threads";
    }
}

TEST(FusionServe, EndToEndLogitsParity)
{
    KnobGuard guard;
    const BertConfig config = tinyBertConfig();
    NnRuntime rt;
    BertClassifier clf(config, &rt);
    Rng init(41);
    clf.initialize(init);
    clf.setTraining(false);
    ClassifierEngine engine(clf, kPadId);

    const BucketSpec buckets({8, 16, 32});
    ServeOptions options;
    options.maxBatch = 4;
    options.maxWaitUs = 200;
    options.defaultDeadlineUs = 60'000'000; // sanitizer-build slack

    auto serve_once = [&](FusionMode mode) {
        setFusionMode(mode);
        Rng body(42);
        std::vector<std::vector<float>> logits;
        InferenceServer server(engine, buckets, options);
        std::vector<std::future<InferReply>> futures;
        for (std::uint64_t id = 0; id < 10; ++id) {
            InferRequest req = syntheticRequest(
                body, id, 4 + static_cast<std::int64_t>(id),
                config.vocabSize);
            futures.push_back(server.submit(req));
        }
        for (auto &f : futures) {
            InferReply reply = f.get();
            EXPECT_TRUE(reply.ok);
            logits.push_back(reply.logits);
        }
        return logits;
    };

    const auto off = serve_once(FusionMode::Off);
    const auto on = serve_once(FusionMode::On);
    ASSERT_EQ(off.size(), on.size());
    for (std::size_t i = 0; i < off.size(); ++i) {
        ASSERT_EQ(off[i].size(), on[i].size());
        for (std::size_t j = 0; j < off[i].size(); ++j)
            EXPECT_NEAR(on[i][j], off[i][j], 1e-4)
                << "request " << i << " logit " << j;
    }
}

} // namespace
} // namespace bertprof

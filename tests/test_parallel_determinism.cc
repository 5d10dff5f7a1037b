/**
 * Determinism contract of the parallel runtime: every parallelized
 * kernel must produce bitwise-identical tensors no matter how many
 * threads execute it. Each case runs the same computation under 1 and
 * 8 threads (and one intermediate count) and compares raw bits —
 * EXPECT_EQ on floats, not EXPECT_NEAR.
 */

#include <cstring>
#include <vector>

#include <gtest/gtest.h>

#include "nn/module.h"
#include "ops/dropout.h"
#include "ops/elementwise.h"
#include "ops/gemm.h"
#include "ops/layernorm.h"
#include "ops/softmax.h"
#include "optim/adam.h"
#include "optim/lamb.h"
#include "runtime/config.h"
#include "util/rng.h"

namespace bertprof {
namespace {

/** Bitwise tensor equality (no float tolerance). */
::testing::AssertionResult
bitsEqual(const Tensor &a, const Tensor &b)
{
    if (a.numel() != b.numel())
        return ::testing::AssertionFailure() << "numel mismatch";
    if (std::memcmp(a.data(), b.data(),
                    static_cast<std::size_t>(a.numel()) * sizeof(float)) !=
        0) {
        for (std::int64_t i = 0; i < a.numel(); ++i) {
            if (std::memcmp(&a.data()[i], &b.data()[i], sizeof(float)) != 0)
                return ::testing::AssertionFailure()
                       << "first bit difference at flat index " << i << ": "
                       << a.data()[i] << " vs " << b.data()[i];
        }
    }
    return ::testing::AssertionSuccess();
}

class ParallelDeterminism : public ::testing::Test
{
  protected:
    void
    TearDown() override
    {
        setNumThreads(0);
        clearGemmImplOverride();
    }
};

TEST_F(ParallelDeterminism, GemmBitwiseAcrossThreadCounts)
{
    Rng rng(101);
    Tensor a(Shape({129, 193})), b(Shape({193, 87}));
    a.fillNormal(rng);
    b.fillNormal(rng);

    setNumThreads(1);
    Tensor c1(Shape({129, 87}));
    gemm(a, b, c1, false, false, 1.25f, 0.0f);

    for (const int n : {4, 8}) {
        setNumThreads(n);
        Tensor cn(Shape({129, 87}));
        gemm(a, b, cn, false, false, 1.25f, 0.0f);
        EXPECT_TRUE(bitsEqual(c1, cn)) << "threads=" << n;
    }
}

TEST_F(ParallelDeterminism, PackedGemmBitwiseAcrossThreadCounts)
{
    // The packed engine with shapes that straddle its MC/NC/KC block
    // boundaries and both transposes in play — the row partition must
    // not leak into any output bit.
    setGemmImpl(GemmImpl::Packed);
    Rng rng(1101);
    const std::int64_t m = 250, n = 173, k = 311;
    Tensor a(Shape({k, m})), b(Shape({n, k}));
    a.fillNormal(rng);
    b.fillNormal(rng);

    setNumThreads(1);
    Tensor c1(Shape({m, n}));
    gemm(a, b, c1, true, true, -0.75f, 0.0f);

    for (const int t : {2, 4, 8}) {
        setNumThreads(t);
        Tensor cn(Shape({m, n}));
        gemm(a, b, cn, true, true, -0.75f, 0.0f);
        EXPECT_TRUE(bitsEqual(c1, cn)) << "threads=" << t;
    }
}

TEST_F(ParallelDeterminism, PackedBatchedGemmBitwiseAcrossThreadCounts)
{
    setGemmImpl(GemmImpl::Packed);
    Rng rng(1202);
    const std::int64_t batch = 12, m = 107, k = 64, n = 107;
    Tensor a(Shape({batch, m, k})), b(Shape({batch, n, k}));
    a.fillNormal(rng);
    b.fillNormal(rng);

    setNumThreads(1);
    Tensor c1(Shape({batch, m, n}));
    batchedGemm(a, b, c1, false, true);

    setNumThreads(8);
    Tensor c8(Shape({batch, m, n}));
    batchedGemm(a, b, c8, false, true);
    EXPECT_TRUE(bitsEqual(c1, c8));
}

TEST_F(ParallelDeterminism, BatchedGemmBitwiseAcrossThreadCounts)
{
    Rng rng(202);
    // The paper's attention-score shape family: B*h batched small GEMMs.
    const std::int64_t batch = 24, m = 32, k = 16, n = 32;
    Tensor a(Shape({batch, m, k})), b(Shape({batch, k, n}));
    a.fillNormal(rng);
    b.fillNormal(rng);

    setNumThreads(1);
    Tensor c1(Shape({batch, m, n}));
    batchedGemm(a, b, c1);

    setNumThreads(8);
    Tensor c8(Shape({batch, m, n}));
    batchedGemm(a, b, c8);
    EXPECT_TRUE(bitsEqual(c1, c8));
}

TEST_F(ParallelDeterminism, LayerNormForwardBackwardBitwise)
{
    Rng rng(303);
    const std::int64_t rows = 257, cols = 96;
    Tensor x(Shape({rows, cols})), gamma(Shape({cols})), beta(Shape({cols}));
    Tensor dout(Shape({rows, cols}));
    x.fillNormal(rng);
    gamma.fillNormal(rng);
    beta.fillNormal(rng);
    dout.fillNormal(rng);

    auto run = [&](Tensor &y, Tensor &mean, Tensor &rstd, Tensor &din,
                   Tensor &dgamma, Tensor &dbeta) {
        layerNormForward(x, gamma, beta, y, mean, rstd, 1e-5f);
        layerNormBackward(x, gamma, mean, rstd, dout, din, dgamma, dbeta);
    };

    setNumThreads(1);
    Tensor y1(Shape({rows, cols})), mean1(Shape({rows})),
        rstd1(Shape({rows})), din1(Shape({rows, cols})),
        dgamma1(Shape({cols})), dbeta1(Shape({cols}));
    run(y1, mean1, rstd1, din1, dgamma1, dbeta1);

    setNumThreads(8);
    Tensor y8(Shape({rows, cols})), mean8(Shape({rows})),
        rstd8(Shape({rows})), din8(Shape({rows, cols})),
        dgamma8(Shape({cols})), dbeta8(Shape({cols}));
    run(y8, mean8, rstd8, din8, dgamma8, dbeta8);

    EXPECT_TRUE(bitsEqual(y1, y8));
    EXPECT_TRUE(bitsEqual(mean1, mean8));
    EXPECT_TRUE(bitsEqual(rstd1, rstd8));
    EXPECT_TRUE(bitsEqual(din1, din8));
    EXPECT_TRUE(bitsEqual(dgamma1, dgamma8));
    EXPECT_TRUE(bitsEqual(dbeta1, dbeta8));
}

TEST_F(ParallelDeterminism, SoftmaxAndBiasBackwardBitwise)
{
    Rng rng(404);
    const std::int64_t rows = 300, cols = 41;
    Tensor x(Shape({rows, cols})), y1(Shape({rows, cols})),
        y8(Shape({rows, cols}));
    x.fillNormal(rng);
    Tensor dout(Shape({rows, cols}));
    dout.fillNormal(rng);

    setNumThreads(1);
    softmaxForward(x, y1);
    Tensor dbias1(Shape({cols}));
    biasBackward(dout, dbias1);

    setNumThreads(8);
    softmaxForward(x, y8);
    Tensor dbias8(Shape({cols}));
    biasBackward(dout, dbias8);

    EXPECT_TRUE(bitsEqual(y1, y8));
    EXPECT_TRUE(bitsEqual(dbias1, dbias8));
}

TEST_F(ParallelDeterminism, DropoutMaskAndOutputBitwise)
{
    Rng data_rng(505);
    Tensor x(Shape({5000}));
    x.fillNormal(data_rng);

    setNumThreads(1);
    Rng rng1(99);
    Tensor y1(Shape({5000})), m1(Shape({5000}));
    dropoutForward(x, 0.1f, rng1, y1, m1);

    setNumThreads(8);
    Rng rng8(99);
    Tensor y8(Shape({5000})), m8(Shape({5000}));
    dropoutForward(x, 0.1f, rng8, y8, m8);

    EXPECT_TRUE(bitsEqual(m1, m8));
    EXPECT_TRUE(bitsEqual(y1, y8));
}

/** Run `steps` Adam (or LAMB) updates on a fresh parameter. */
template <typename Opt>
Tensor
runOptimizer(int steps, std::int64_t numel)
{
    Parameter p("p", Shape({numel}));
    Rng rng(777);
    p.value.fillNormal(rng);
    OptimizerConfig config;
    config.learningRate = 1e-2f;
    Opt opt(config);
    for (int s = 0; s < steps; ++s) {
        p.grad.fillNormal(rng);
        opt.step({&p});
    }
    return p.value.clone();
}

TEST_F(ParallelDeterminism, AdamUpdatesBitwiseAcrossThreadCounts)
{
    setNumThreads(1);
    const Tensor w1 = runOptimizer<Adam>(4, 50000);
    setNumThreads(8);
    const Tensor w8 = runOptimizer<Adam>(4, 50000);
    EXPECT_TRUE(bitsEqual(w1, w8));
}

TEST_F(ParallelDeterminism, LambParallelCountsAgreeWithEachOther)
{
    // LAMB's trust-ratio norms reduce across the whole parameter, as
    // per-chunk partials on the thread-count-independent chunk grid
    // merged in chunk order.
    setNumThreads(2);
    const Tensor w2 = runOptimizer<Lamb>(4, 50000);
    setNumThreads(8);
    const Tensor w8 = runOptimizer<Lamb>(4, 50000);
    EXPECT_TRUE(bitsEqual(w2, w8));
}

TEST_F(ParallelDeterminism, LambAllThreadCountsAgree)
{
    // One thread walks the same chunk grid and merges the same
    // partials in the same order, so it matches too. 50000 elements
    // is 7 chunks of 8192 (the last ragged). The trust ratio is
    // compared as a double: the float step size would round away a
    // difference in how the norms were associated.
    const auto run = [](int threads, double &trust) {
        setNumThreads(threads);
        Parameter p("p", Shape({50000}));
        Rng rng(777);
        p.value.fillNormal(rng);
        OptimizerConfig config;
        config.learningRate = 1e-2f;
        Lamb lamb(config);
        for (int s = 0; s < 4; ++s) {
            p.grad.fillNormal(rng);
            lamb.step({&p});
        }
        trust = lamb.lastTrustRatio(&p);
        return p.value.clone();
    };
    double t1 = 0.0, t2 = 0.0, t8 = 0.0;
    const Tensor w1 = run(1, t1);
    const Tensor w2 = run(2, t2);
    const Tensor w8 = run(8, t8);
    EXPECT_TRUE(bitsEqual(w1, w2));
    EXPECT_TRUE(bitsEqual(w1, w8));
    EXPECT_EQ(std::memcmp(&t1, &t2, sizeof(double)), 0);
    EXPECT_EQ(std::memcmp(&t1, &t8, sizeof(double)), 0);
}

} // namespace
} // namespace bertprof

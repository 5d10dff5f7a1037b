/** Tests for dropout, embedding gather/scatter, and cross-entropy. */

#include <cmath>

#include <gtest/gtest.h>

#include "ops/cross_entropy.h"
#include "ops/dropout.h"
#include "ops/embedding.h"
#include "test_helpers.h"
#include "util/rng.h"

namespace bertprof {
namespace {

TEST(Dropout, ZeroProbabilityIsIdentity)
{
    Rng rng(1);
    Tensor in(Shape({16}));
    in.fillNormal(rng);
    Tensor out(in.shape()), mask(in.shape());
    dropoutForward(in, 0.0f, rng, out, mask);
    EXPECT_LT(maxAbsDiff(in, out), 1e-7f);
    for (std::int64_t i = 0; i < mask.numel(); ++i)
        EXPECT_FLOAT_EQ(mask.at(i), 1.0f);
}

TEST(Dropout, DropRateMatchesProbability)
{
    Rng rng(2);
    Tensor in(Shape({20000}));
    in.fill(1.0f);
    Tensor out(in.shape()), mask(in.shape());
    dropoutForward(in, 0.25f, rng, out, mask);
    std::int64_t dropped = 0;
    for (std::int64_t i = 0; i < out.numel(); ++i)
        dropped += out.at(i) == 0.0f ? 1 : 0;
    EXPECT_NEAR(static_cast<double>(dropped) / out.numel(), 0.25, 0.02);
}

TEST(Dropout, InvertedScalingPreservesExpectation)
{
    Rng rng(3);
    Tensor in(Shape({50000}));
    in.fill(1.0f);
    Tensor out(in.shape()), mask(in.shape());
    dropoutForward(in, 0.4f, rng, out, mask);
    EXPECT_NEAR(out.sum() / out.numel(), 1.0, 0.03);
}

TEST(Dropout, BackwardAppliesSavedMask)
{
    Rng rng(4);
    Tensor in(Shape({64}));
    in.fill(1.0f);
    Tensor out(in.shape()), mask(in.shape());
    dropoutForward(in, 0.5f, rng, out, mask);
    Tensor dout(in.shape());
    dout.fill(2.0f);
    Tensor din(in.shape());
    dropoutBackward(dout, mask, din);
    for (std::int64_t i = 0; i < din.numel(); ++i)
        EXPECT_FLOAT_EQ(din.at(i), 2.0f * mask.at(i));
}

TEST(Dropout, PrefixMaskIsPrefixOfLongerMask)
{
    // The mask is a function of (key, element index): from the same
    // Rng state, a shorter tensor gets exactly the leading elements
    // of a longer one's mask.
    Rng data(5);
    Tensor in(Shape({3000}));
    in.fillNormal(data);
    Tensor prefix(Shape({37}));
    for (std::int64_t i = 0; i < prefix.numel(); ++i)
        prefix.data()[i] = in.data()[i];
    Rng a(77), b(77);
    Tensor out(in.shape()), mask(in.shape());
    dropoutForward(in, 0.3f, a, out, mask);
    Tensor pout(prefix.shape()), pmask(prefix.shape());
    dropoutForward(prefix, 0.3f, b, pout, pmask);
    for (std::int64_t i = 0; i < prefix.numel(); ++i) {
        EXPECT_EQ(pmask.at(i), mask.at(i)) << "i=" << i;
        EXPECT_EQ(pout.at(i), out.at(i)) << "i=" << i;
    }
}

TEST(Dropout, EachCallTakesExactlyOneDrawAndNoneAtZero)
{
    Tensor in(Shape({5000}));
    in.fill(1.0f);
    Tensor out(in.shape()), mask(in.shape());

    Rng rng(9), ref(9);
    dropoutForward(in, 0.1f, rng, out, mask);
    ref.engine().discard(1);
    EXPECT_EQ(rng.engine()(), ref.engine()());

    dropoutForward(in, 0.0f, rng, out, mask); // p == 0: no draw
    EXPECT_EQ(rng.engine()(), ref.engine()());

    // Two calls: two draws, and two different masks.
    Tensor mask2(in.shape());
    dropoutForward(in, 0.5f, rng, out, mask);
    dropoutForward(in, 0.5f, rng, out, mask2);
    ref.engine().discard(2);
    EXPECT_EQ(rng.engine()(), ref.engine()());
    EXPECT_GT(maxAbsDiff(mask, mask2), 0.0f);
}

TEST(Embedding, GatherCopiesRows)
{
    Tensor table(Shape({4, 3}),
                 {0, 0, 0, 1, 1, 1, 2, 2, 2, 3, 3, 3});
    Tensor out(Shape({2, 3}));
    embeddingForward(table, {2, 0}, out);
    EXPECT_FLOAT_EQ(out.at(0, 0), 2.0f);
    EXPECT_FLOAT_EQ(out.at(1, 2), 0.0f);
}

TEST(Embedding, ScatterAccumulatesDuplicates)
{
    Tensor dout(Shape({3, 2}), {1, 1, 2, 2, 4, 4});
    Tensor dtable(Shape({4, 2}));
    embeddingBackward(dout, {1, 1, 3}, dtable);
    EXPECT_FLOAT_EQ(dtable.at(1, 0), 3.0f); // 1 + 2
    EXPECT_FLOAT_EQ(dtable.at(3, 1), 4.0f);
    EXPECT_FLOAT_EQ(dtable.at(0, 0), 0.0f);
}

TEST(Embedding, GatherScatterAreAdjoint)
{
    // <gather(T, ids), G> == <T, scatter(G, ids)> for any T, G.
    Rng rng(5);
    Tensor table(Shape({6, 4}));
    table.fillNormal(rng);
    std::vector<std::int64_t> ids = {3, 1, 1, 5};
    Tensor g(Shape({4, 4}));
    g.fillNormal(rng);

    Tensor gathered(Shape({4, 4}));
    embeddingForward(table, ids, gathered);
    double lhs = 0.0;
    for (std::int64_t i = 0; i < g.numel(); ++i)
        lhs += static_cast<double>(gathered.at(i)) * g.at(i);

    Tensor scattered(table.shape());
    embeddingBackward(g, ids, scattered);
    double rhs = 0.0;
    for (std::int64_t i = 0; i < table.numel(); ++i)
        rhs += static_cast<double>(table.at(i)) * scattered.at(i);
    EXPECT_NEAR(lhs, rhs, 1e-4);
}

TEST(CrossEntropy, UniformLogitsGiveLogC)
{
    Tensor logits(Shape({2, 8}));
    Tensor dlogits(logits.shape());
    const auto result = softmaxCrossEntropy(logits, {3, 5}, dlogits);
    EXPECT_NEAR(result.loss, std::log(8.0), 1e-5);
    EXPECT_EQ(result.count, 2);
}

TEST(CrossEntropy, PerfectPredictionNearZeroLoss)
{
    Tensor logits(Shape({1, 4}), {100.0f, 0.0f, 0.0f, 0.0f});
    Tensor dlogits(logits.shape());
    const auto result = softmaxCrossEntropy(logits, {0}, dlogits);
    EXPECT_NEAR(result.loss, 0.0, 1e-5);
}

TEST(CrossEntropy, IgnoredPositionsSkipped)
{
    Tensor logits(Shape({3, 4}));
    Tensor dlogits(logits.shape());
    const auto result =
        softmaxCrossEntropy(logits, {kIgnoreIndex, 1, kIgnoreIndex},
                            dlogits);
    EXPECT_EQ(result.count, 1);
    // Ignored rows get zero gradient.
    for (int c = 0; c < 4; ++c) {
        EXPECT_FLOAT_EQ(dlogits.at(0, c), 0.0f);
        EXPECT_FLOAT_EQ(dlogits.at(2, c), 0.0f);
    }
}

TEST(CrossEntropy, GradientRowsSumToZero)
{
    Rng rng(6);
    Tensor logits(Shape({4, 5}));
    logits.fillNormal(rng);
    Tensor dlogits(logits.shape());
    softmaxCrossEntropy(logits, {0, 1, 2, 3}, dlogits);
    for (int r = 0; r < 4; ++r) {
        double row = 0.0;
        for (int c = 0; c < 5; ++c)
            row += dlogits.at(r, c);
        EXPECT_NEAR(row, 0.0, 1e-6);
    }
}

TEST(CrossEntropy, GradientMatchesFiniteDifference)
{
    Rng rng(7);
    Tensor logits(Shape({2, 4}));
    logits.fillNormal(rng);
    std::vector<std::int64_t> labels = {1, 3};
    Tensor dlogits(logits.shape());
    softmaxCrossEntropy(logits, labels, dlogits);

    auto loss = [&]() {
        Tensor d(logits.shape());
        return softmaxCrossEntropy(logits, labels, d).loss;
    };
    testing::expectGradientsMatch(logits, loss, dlogits, 1e-3, 1e-2);
}

TEST(CrossEntropy, AllIgnoredGivesZeroLoss)
{
    Tensor logits(Shape({2, 3}));
    Tensor dlogits(logits.shape());
    const auto result = softmaxCrossEntropy(
        logits, {kIgnoreIndex, kIgnoreIndex}, dlogits);
    EXPECT_EQ(result.count, 0);
    EXPECT_EQ(result.loss, 0.0);
}

} // namespace
} // namespace bertprof

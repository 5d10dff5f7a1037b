/** Tests for GeLU/ReLU/tanh activations and softmax, incl. gradchecks. */

#include <cmath>

#include <gtest/gtest.h>

#include "ops/activation.h"
#include "ops/softmax.h"
#include "test_helpers.h"
#include "util/rng.h"

namespace bertprof {
namespace {

using testing::expectGradientsMatch;

TEST(Gelu, KnownValues)
{
    Tensor in(Shape({3}), {0.0f, 1.0f, -1.0f});
    Tensor out(Shape({3}));
    geluForward(in, out);
    EXPECT_NEAR(out.at(0), 0.0f, 1e-7f);
    // GELU(1) = 0.5 * (1 + erf(1/sqrt(2))) = 0.841345
    EXPECT_NEAR(out.at(1), 0.841345f, 1e-5f);
    EXPECT_NEAR(out.at(2), -0.158655f, 1e-5f);
}

TEST(Gelu, AsymptoticBehaviour)
{
    Tensor in(Shape({2}), {10.0f, -10.0f});
    Tensor out(Shape({2}));
    geluForward(in, out);
    EXPECT_NEAR(out.at(0), 10.0f, 1e-4f);
    EXPECT_NEAR(out.at(1), 0.0f, 1e-4f);
}

TEST(Gelu, GradientMatchesFiniteDifference)
{
    Rng rng(1);
    Tensor in(Shape({8}));
    in.fillNormal(rng);
    Tensor dout(Shape({8}));
    dout.fill(1.0f);
    Tensor din(Shape({8}));
    geluBackward(in, dout, din);

    auto loss = [&]() {
        Tensor out(in.shape());
        geluForward(in, out);
        return out.sum();
    };
    expectGradientsMatch(in, loss, din, 1e-3, 1e-2);
}

TEST(Relu, ForwardAndBackward)
{
    Tensor in(Shape({4}), {-1, 0, 2, -3});
    Tensor out(Shape({4}));
    reluForward(in, out);
    EXPECT_FLOAT_EQ(out.at(0), 0.0f);
    EXPECT_FLOAT_EQ(out.at(2), 2.0f);

    Tensor dout(Shape({4}));
    dout.fill(1.0f);
    Tensor din(Shape({4}));
    reluBackward(in, dout, din);
    EXPECT_FLOAT_EQ(din.at(0), 0.0f);
    EXPECT_FLOAT_EQ(din.at(2), 1.0f);
}

TEST(Tanh, BackwardUsesSavedOutput)
{
    Rng rng(2);
    Tensor in(Shape({6}));
    in.fillNormal(rng);
    Tensor out(in.shape());
    tanhForward(in, out);
    Tensor dout(in.shape());
    dout.fill(1.0f);
    Tensor din(in.shape());
    tanhBackward(out, dout, din);

    auto loss = [&]() {
        Tensor y(in.shape());
        tanhForward(in, y);
        return y.sum();
    };
    expectGradientsMatch(in, loss, din, 1e-3, 1e-2);
}

TEST(Softmax, RowsSumToOne)
{
    Rng rng(3);
    Tensor in(Shape({5, 7}));
    in.fillNormal(rng, 0.0f, 3.0f);
    Tensor out(in.shape());
    softmaxForward(in, out);
    for (int r = 0; r < 5; ++r) {
        double row = 0.0;
        for (int c = 0; c < 7; ++c) {
            row += out.at(r, c);
            EXPECT_GT(out.at(r, c), 0.0f);
        }
        EXPECT_NEAR(row, 1.0, 1e-5);
    }
}

TEST(Softmax, ShiftInvariant)
{
    Tensor a(Shape({1, 3}), {1, 2, 3});
    Tensor b(Shape({1, 3}), {101, 102, 103});
    Tensor oa(a.shape()), ob(b.shape());
    softmaxForward(a, oa);
    softmaxForward(b, ob);
    EXPECT_LT(maxAbsDiff(oa, ob), 1e-6f);
}

TEST(Softmax, NumericallyStableForLargeInputs)
{
    Tensor in(Shape({1, 2}), {1000.0f, 999.0f});
    Tensor out(in.shape());
    softmaxForward(in, out);
    EXPECT_FALSE(std::isnan(out.at(0)));
    EXPECT_NEAR(out.at(0) + out.at(1), 1.0f, 1e-5f);
    EXPECT_GT(out.at(0), out.at(1));
}

TEST(Softmax, HandlesHigherRankTensors)
{
    Rng rng(4);
    Tensor in(Shape({2, 3, 4}));
    in.fillNormal(rng);
    Tensor out(in.shape());
    softmaxForward(in, out);
    for (int r = 0; r < 6; ++r) {
        double row = 0.0;
        for (int c = 0; c < 4; ++c)
            row += out.at(r * 4 + c);
        EXPECT_NEAR(row, 1.0, 1e-5);
    }
}

TEST(Softmax, GradientMatchesFiniteDifference)
{
    Rng rng(5);
    Tensor in(Shape({2, 4}));
    in.fillNormal(rng);
    // Loss = sum(w * softmax(in)) with distinct weights so the
    // gradient is non-trivial.
    Tensor w(Shape({2, 4}), {1, -2, 3, 0.5f, -1, 2, 0.25f, 4});

    Tensor out(in.shape());
    softmaxForward(in, out);
    Tensor din(in.shape());
    softmaxBackward(out, w, din);

    auto loss = [&]() {
        Tensor y(in.shape());
        softmaxForward(in, y);
        double total = 0.0;
        for (std::int64_t i = 0; i < y.numel(); ++i)
            total += static_cast<double>(y.at(i)) * w.at(i);
        return total;
    };
    expectGradientsMatch(in, loss, din, 1e-3, 1e-2);
}

TEST(Softmax, ZeroWidthRowsForwardIsNoOp)
{
    // [3, 0]: three rows of nothing. Used to divide by cols == 0.
    Tensor in(Shape({3, 0})), out(Shape({3, 0}));
    const KernelStats s = softmaxForward(in, out);
    EXPECT_EQ(s.flops, 0);
    EXPECT_EQ(s.bytesRead + s.bytesWritten, 0);
}

TEST(Softmax, ZeroWidthRowsBackwardIsNoOp)
{
    Tensor out(Shape({3, 0})), dout(Shape({3, 0})), din(Shape({3, 0}));
    const KernelStats s = softmaxBackward(out, dout, din);
    EXPECT_EQ(s.flops, 0);
    EXPECT_EQ(s.bytesRead + s.bytesWritten, 0);
}

} // namespace
} // namespace bertprof

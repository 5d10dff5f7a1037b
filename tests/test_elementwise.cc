/** Tests for the element-wise kernels. */

#include <gtest/gtest.h>

#include "ops/elementwise.h"
#include "util/rng.h"

namespace bertprof {
namespace {

TEST(Elementwise, AddForward)
{
    Tensor a(Shape({3}), {1, 2, 3});
    Tensor b(Shape({3}), {10, 20, 30});
    Tensor out(Shape({3}));
    const KernelStats stats = addForward(a, b, out);
    EXPECT_FLOAT_EQ(out.at(0), 11.0f);
    EXPECT_FLOAT_EQ(out.at(2), 33.0f);
    EXPECT_EQ(stats.bytesRead, 3 * 2 * 4);
    EXPECT_EQ(stats.bytesWritten, 3 * 4);
}

TEST(Elementwise, MulForward)
{
    Tensor a(Shape({2}), {2, -3});
    Tensor b(Shape({2}), {4, 5});
    Tensor out(Shape({2}));
    mulForward(a, b, out);
    EXPECT_FLOAT_EQ(out.at(0), 8.0f);
    EXPECT_FLOAT_EQ(out.at(1), -15.0f);
}

TEST(Elementwise, ScaleForwardInPlaceSafe)
{
    Tensor a(Shape({2}), {2, 4});
    scaleForward(a, 0.5f, a);
    EXPECT_FLOAT_EQ(a.at(0), 1.0f);
    EXPECT_FLOAT_EQ(a.at(1), 2.0f);
}

TEST(Elementwise, Accumulate)
{
    Tensor a(Shape({2}), {1, 1});
    Tensor b(Shape({2}), {2, 3});
    accumulate(a, b);
    EXPECT_FLOAT_EQ(a.at(0), 3.0f);
    EXPECT_FLOAT_EQ(a.at(1), 4.0f);
}

TEST(Elementwise, BiasForwardBroadcastsOverRows)
{
    Tensor in(Shape({2, 3}), {0, 0, 0, 1, 1, 1});
    Tensor bias(Shape({3}), {10, 20, 30});
    Tensor out(Shape({2, 3}));
    const KernelStats stats = biasForward(in, bias, out);
    EXPECT_FLOAT_EQ(out.at(0, 1), 20.0f);
    EXPECT_FLOAT_EQ(out.at(1, 2), 31.0f);
    EXPECT_EQ(stats.bytesRead, 6 * 4 + 3 * 4);
}

TEST(Elementwise, BiasBackwardSumsColumns)
{
    Tensor dout(Shape({3, 2}), {1, 2, 3, 4, 5, 6});
    Tensor dbias(Shape({2}));
    biasBackward(dout, dbias);
    EXPECT_FLOAT_EQ(dbias.at(0), 9.0f);
    EXPECT_FLOAT_EQ(dbias.at(1), 12.0f);
}

TEST(Elementwise, BiasRoundTripGradientIdentity)
{
    // d(sum(out))/d(bias[c]) must equal row count.
    Tensor in(Shape({4, 3}));
    Tensor bias(Shape({3}));
    Tensor out(Shape({4, 3}));
    biasForward(in, bias, out);
    Tensor dout(Shape({4, 3}));
    dout.fill(1.0f);
    Tensor dbias(Shape({3}));
    biasBackward(dout, dbias);
    for (int c = 0; c < 3; ++c)
        EXPECT_FLOAT_EQ(dbias.at(c), 4.0f);
}

TEST(Elementwise, MaskAddBroadcastsOverGroups)
{
    Tensor a(Shape({2, 2, 2}));
    a.fill(1.0f);
    Tensor mask(Shape({2, 2}), {0, -10, -10, 0});
    Tensor out(a.shape());
    maskAddForward(a, mask, out);
    for (int g = 0; g < 2; ++g) {
        EXPECT_FLOAT_EQ(out.at(g * 4 + 0), 1.0f);
        EXPECT_FLOAT_EQ(out.at(g * 4 + 1), -9.0f);
        EXPECT_FLOAT_EQ(out.at(g * 4 + 2), -9.0f);
        EXPECT_FLOAT_EQ(out.at(g * 4 + 3), 1.0f);
    }
}

TEST(ElementwiseStats, ArithmeticIntensity)
{
    const KernelStats stats = elementwiseStats(100, 2, 1, 1);
    EXPECT_DOUBLE_EQ(stats.opsPerByte(), 100.0 / (300 * 4));
}

TEST(KernelStats, AdditionAccumulates)
{
    KernelStats a{10, 100, 50};
    KernelStats b{1, 2, 3};
    const KernelStats c = a + b;
    EXPECT_EQ(c.flops, 11);
    EXPECT_EQ(c.bytesRead, 102);
    EXPECT_EQ(c.bytesWritten, 53);
    EXPECT_EQ(c.bytesTotal(), 155);
}

TEST(Elementwise, BiasForwardZeroWidthRowsIsNoOp)
{
    Tensor in(Shape({3, 0})), bias(Shape({0})), out(Shape({3, 0}));
    const KernelStats s = biasForward(in, bias, out);
    EXPECT_EQ(s.flops, 0);
    EXPECT_EQ(s.bytesRead + s.bytesWritten, 0);
}

TEST(Elementwise, BiasBackwardZeroWidthRowsIsNoOp)
{
    Tensor dout(Shape({3, 0})), dbias(Shape({0}));
    const KernelStats s = biasBackward(dout, dbias);
    EXPECT_EQ(s.flops, 0);
    EXPECT_EQ(s.bytesRead + s.bytesWritten, 0);
}

} // namespace
} // namespace bertprof

/** Tests for Shape and Tensor. */

#include <utility>

#include <gtest/gtest.h>

#include "tensor/shape.h"
#include "tensor/tensor.h"
#include "util/rng.h"

namespace bertprof {
namespace {

TEST(Shape, RankAndNumel)
{
    Shape s({2, 3, 4});
    EXPECT_EQ(s.rank(), 3);
    EXPECT_EQ(s.numel(), 24);
    EXPECT_EQ(Shape{}.rank(), 0);
    EXPECT_EQ(Shape{}.numel(), 1);
}

TEST(Shape, NegativeDimIndexCountsFromBack)
{
    Shape s({2, 3, 4});
    EXPECT_EQ(s.dim(-1), 4);
    EXPECT_EQ(s.dim(-3), 2);
    EXPECT_EQ(s.dim(0), 2);
}

TEST(Shape, RowMajorStrides)
{
    Shape s({2, 3, 4});
    const auto strides = s.strides();
    ASSERT_EQ(strides.size(), 3u);
    EXPECT_EQ(strides[0], 12);
    EXPECT_EQ(strides[1], 4);
    EXPECT_EQ(strides[2], 1);
}

TEST(Shape, EqualityAndToString)
{
    EXPECT_EQ(Shape({2, 3}), Shape({2, 3}));
    EXPECT_NE(Shape({2, 3}), Shape({3, 2}));
    EXPECT_EQ(Shape({2, 3}).toString(), "[2, 3]");
}

TEST(Tensor, ZeroInitialized)
{
    Tensor t(Shape({3, 3}));
    for (std::int64_t i = 0; i < t.numel(); ++i)
        EXPECT_EQ(t.at(i), 0.0f);
}

TEST(Tensor, FillAndSum)
{
    Tensor t(Shape({4, 5}));
    t.fill(0.5f);
    EXPECT_DOUBLE_EQ(t.sum(), 10.0);
}

TEST(Tensor, TwoDimensionalAccess)
{
    Tensor t(Shape({2, 3}));
    t.at(1, 2) = 7.0f;
    EXPECT_EQ(t.at(1 * 3 + 2), 7.0f);
    EXPECT_EQ(t.at(1, 2), 7.0f);
}

TEST(Tensor, CloneIsDeep)
{
    Tensor a(Shape({2}));
    a.fill(1.0f);
    Tensor b = a.clone();
    b.at(0) = 9.0f;
    EXPECT_EQ(a.at(0), 1.0f);
}

TEST(Tensor, ReshapePreservesData)
{
    Tensor a(Shape({2, 6}), std::vector<float>(12, 3.0f));
    Tensor b = a.reshaped(Shape({3, 4}));
    EXPECT_EQ(b.shape(), Shape({3, 4}));
    EXPECT_DOUBLE_EQ(b.sum(), 36.0);
}

TEST(Tensor, L2NormAndAbsMax)
{
    Tensor t(Shape({2}), {3.0f, -4.0f});
    EXPECT_DOUBLE_EQ(t.l2Norm(), 5.0);
    EXPECT_EQ(t.absMax(), 4.0f);
}

TEST(Tensor, StorageBytesReflectDtype)
{
    Tensor t(Shape({10}));
    EXPECT_EQ(t.storageBytes(), 40);
    t.castToHalfStorage();
    EXPECT_EQ(t.storageBytes(), 20);
    EXPECT_EQ(t.dtype(), DType::F16);
    t.castToFloatStorage();
    EXPECT_EQ(t.storageBytes(), 40);
}

TEST(Tensor, HalfStorageRoundsValues)
{
    // 0.1f is not representable in binary16; rounding must change it.
    Tensor t(Shape({1}), {0.1f});
    t.castToHalfStorage();
    EXPECT_NE(t.at(0), 0.1f);
    EXPECT_NEAR(t.at(0), 0.1f, 1e-3f);
}

TEST(Tensor, FillNormalProducesRequestedMoments)
{
    Rng rng(3);
    Tensor t(Shape({20000}));
    t.fillNormal(rng, 1.0f, 2.0f);
    const double mean = t.sum() / t.numel();
    EXPECT_NEAR(mean, 1.0, 0.1);
}

TEST(Tensor, MaxAbsDiff)
{
    Tensor a(Shape({3}), {1.0f, 2.0f, 3.0f});
    Tensor b(Shape({3}), {1.0f, 2.5f, 2.0f});
    EXPECT_FLOAT_EQ(maxAbsDiff(a, b), 1.0f);
}

TEST(Tensor, ToStringMentionsShapeAndDtype)
{
    Tensor t(Shape({2, 3}));
    EXPECT_EQ(t.toString(), "Tensor[2, 3] fp32");
}

// Every Tensor owns its storage: copies never alias, moves hand the
// buffer over, and nothing shares memory with the tensor it came from.

TEST(Tensor, CopyConstructionOwnsSeparateStorage)
{
    Tensor a(Shape({2, 2}), {1.0f, 2.0f, 3.0f, 4.0f});
    Tensor b(a);
    EXPECT_NE(b.data(), a.data());
    b.at(1, 1) = -1.0f;
    EXPECT_EQ(a.at(1, 1), 4.0f);
    EXPECT_EQ(b.at(0, 1), 2.0f);
}

TEST(Tensor, CopyAssignmentOwnsSeparateStorage)
{
    Tensor a(Shape({3}), {1.0f, 2.0f, 3.0f}, DType::F16);
    Tensor b(Shape({5}));
    b = a;
    EXPECT_EQ(b.shape(), a.shape());
    EXPECT_EQ(b.dtype(), DType::F16);
    EXPECT_NE(b.data(), a.data());
    a.fill(0.0f);
    EXPECT_EQ(b.sum(), 6.0);
}

TEST(Tensor, MoveHandsOverTheSameBuffer)
{
    Tensor a(Shape({4, 8}));
    a.fill(2.0f);
    const float *buffer = a.data();
    Tensor b(std::move(a));
    EXPECT_EQ(b.data(), buffer);
    EXPECT_EQ(b.sum(), 64.0);

    Tensor c;
    c = std::move(b);
    EXPECT_EQ(c.data(), buffer);
    EXPECT_EQ(c.shape(), Shape({4, 8}));
}

TEST(Tensor, ReshapedOwnsSeparateStorage)
{
    Tensor a(Shape({2, 3}), {0.0f, 1.0f, 2.0f, 3.0f, 4.0f, 5.0f});
    Tensor b = a.reshaped(Shape({3, 2}));
    EXPECT_NE(b.data(), a.data());
    b.at(2, 1) = 50.0f;
    EXPECT_EQ(a.at(1, 2), 5.0f);
}

TEST(Tensor, DefaultTensorOwnsOneZeroElement)
{
    Tensor t;
    EXPECT_EQ(t.numel(), 1);
    ASSERT_NE(t.data(), nullptr);
    EXPECT_EQ(t.at(0), 0.0f);
    t.at(0) = 3.0f;
    EXPECT_EQ(t.clone().at(0), 3.0f);
}

} // namespace
} // namespace bertprof

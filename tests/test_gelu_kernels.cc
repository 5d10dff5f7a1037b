/**
 * Float GeLU rows (ops/gelu_kernels.h) for every ISA variant the host
 * supports, through each variant's entry point: accuracy against a
 * double-precision erfc oracle (the library itself evaluates no
 * double erf any more), propagation of NaN and +-inf, and bitwise
 * position invariance — an element's bits depend only on its value,
 * never on where it lands in a row or how long the row is.
 */

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "ops/activation.h"
#include "ops/gelu_kernels.h"
#include "runtime/config.h"
#include "util/rng.h"

namespace bertprof {
namespace {

constexpr double kInvSqrt2 = 0.7071067811865475244;
constexpr double kInvSqrt2Pi = 0.3989422804014326779;

/**
 * The oracle: GeLU and its derivative in double. Phi(x) is taken as
 * erfc(-x / sqrt(2)) / 2, which keeps full relative precision in the
 * negative tail; the textbook (1 + erf(x / sqrt(2))) / 2 cancels there
 * and is already wrong in the first digit at x = -8.4.
 */
double
cdfRef(double x)
{
    return 0.5 * std::erfc(-x * kInvSqrt2);
}

double
pdfRef(double x)
{
    return kInvSqrt2Pi * std::exp(-0.5 * x * x);
}

double
geluRef(double x)
{
    return x * cdfRef(x);
}

double
geluGradRef(double x)
{
    return cdfRef(x) + x * pdfRef(x);
}

// Error budgets (DESIGN.md §8, per-op table), over x in [-10, 10]:
// absolute |f - ref| <= 1e-6; relative |f - ref| <= 1e-5 * scale
// wherever scale is a normal float, with scale = |GELU(x)| forward and
// Phi(x) + |x phi(x)| backward (the derivative crosses zero near
// x = -0.75, so its own magnitude is no measure there).
constexpr double kAbsBudget = 1e-6;
constexpr double kRelBudget = 1e-5;

bool
sameBits(float a, float b)
{
    return std::memcmp(&a, &b, sizeof(float)) == 0;
}

std::string
isaLabel(const ::testing::TestParamInfo<int> &info)
{
    return isaName(static_cast<Isa>(info.param));
}

class GeluVariant : public ::testing::TestWithParam<int>
{
  protected:
    void
    SetUp() override
    {
        isa_ = static_cast<Isa>(GetParam());
        if (!isaSupported(isa_))
            GTEST_SKIP() << isaName(isa_) << " is not available here";
        k_ = &geluKernels(isa_);
    }

    Isa isa_ = Isa::Baseline;
    const GeluKernels *k_ = nullptr;
};

/** x in [-10, 10] in steps of 2^-10 (exact in float), plus +-0. */
std::vector<float>
grid()
{
    std::vector<float> xs;
    for (int i = -10240; i <= 10240; ++i)
        xs.push_back(static_cast<float>(i) / 1024.0f);
    xs.push_back(-0.0f);
    xs.push_back(0.0f);
    return xs;
}

TEST_P(GeluVariant, ForwardWithinBudgetOfDoubleOracle)
{
    const std::vector<float> xs = grid();
    std::vector<float> ys(xs.size());
    k_->forward(xs.data(), ys.data(), static_cast<std::int64_t>(xs.size()));
    double max_abs = 0.0, max_rel = 0.0;
    for (std::size_t i = 0; i < xs.size(); ++i) {
        const double ref = geluRef(xs[i]);
        const double err = std::fabs(ys[i] - ref);
        max_abs = std::max(max_abs, err);
        if (std::fabs(ref) >= std::numeric_limits<float>::min())
            max_rel = std::max(max_rel, err / std::fabs(ref));
        ASSERT_LE(err, kAbsBudget) << "x=" << xs[i];
    }
    EXPECT_LE(max_rel, kRelBudget);
    EXPECT_TRUE(sameBits(ys[ys.size() - 2], -0.0f)); // GELU(-0) = -0
    EXPECT_TRUE(sameBits(ys.back(), 0.0f));
    RecordProperty("max_abs_err", std::to_string(max_abs));
    RecordProperty("max_rel_err", std::to_string(max_rel));
}

TEST_P(GeluVariant, BackwardWithinBudgetOfDoubleOracle)
{
    const std::vector<float> xs = grid();
    const std::vector<float> ones(xs.size(), 1.0f);
    std::vector<float> dx(xs.size());
    k_->backward(xs.data(), ones.data(), dx.data(),
                 static_cast<std::int64_t>(xs.size()));
    double max_abs = 0.0, max_rel = 0.0;
    for (std::size_t i = 0; i < xs.size(); ++i) {
        const double ref = geluGradRef(xs[i]);
        const double err = std::fabs(dx[i] - ref);
        const double scale =
            cdfRef(xs[i]) + std::fabs(xs[i] * pdfRef(xs[i]));
        max_abs = std::max(max_abs, err);
        if (scale >= std::numeric_limits<float>::min())
            max_rel = std::max(max_rel, err / scale);
        ASSERT_LE(err, kAbsBudget) << "x=" << xs[i];
    }
    EXPECT_LE(max_rel, kRelBudget);
    RecordProperty("max_abs_err", std::to_string(max_abs));
    RecordProperty("max_rel_err", std::to_string(max_rel));

    // The upstream gradient scales the result.
    const std::vector<float> halves(xs.size(), -0.5f);
    std::vector<float> dx_half(xs.size());
    k_->backward(xs.data(), halves.data(), dx_half.data(),
                 static_cast<std::int64_t>(xs.size()));
    for (std::size_t i = 0; i < xs.size(); ++i)
        ASSERT_NEAR(dx_half[i], -0.5 * geluGradRef(xs[i]), kAbsBudget);
}

TEST_P(GeluVariant, NonFiniteInputsStayNonFinite)
{
    const float inf = std::numeric_limits<float>::infinity();
    const float nan = std::numeric_limits<float>::quiet_NaN();
    const float xs[] = {nan, inf, -inf, -nan};
    const float ones[] = {1.0f, 1.0f, 1.0f, 1.0f};
    float y[4], dx[4];
    k_->forward(xs, y, 4);
    k_->backward(xs, ones, dx, 4);
    EXPECT_TRUE(std::isnan(y[0]));
    EXPECT_EQ(y[1], inf);
    EXPECT_FALSE(std::isfinite(y[2])); // -inf * Phi(-inf) = -inf * 0
    EXPECT_TRUE(std::isnan(y[3]));
    for (int i = 0; i < 4; ++i)
        EXPECT_FALSE(std::isfinite(dx[i])) << "i=" << i;

    // A NaN upstream gradient also survives (GradScaler's overflow
    // check looks for it).
    const float x1[] = {0.5f};
    const float g1[] = {nan};
    float d1[1];
    k_->backward(x1, g1, d1, 1);
    EXPECT_TRUE(std::isnan(d1[0]));
}

TEST_P(GeluVariant, LargeFiniteInputsStayFinite)
{
    const float big = std::numeric_limits<float>::max();
    const float xs[] = {20.0f, -20.0f, 1e4f, -1e4f, big, -big};
    const float ones[] = {1, 1, 1, 1, 1, 1};
    float y[6], dx[6];
    k_->forward(xs, y, 6);
    k_->backward(xs, ones, dx, 6);
    for (int i = 0; i < 6; ++i) {
        EXPECT_TRUE(std::isfinite(y[i])) << "x=" << xs[i];
        EXPECT_TRUE(std::isfinite(dx[i])) << "x=" << xs[i];
    }
    EXPECT_EQ(y[0], 20.0f);
    EXPECT_EQ(y[2], 1e4f);
    EXPECT_EQ(y[4], big);
    EXPECT_EQ(y[3], 0.0f);
    EXPECT_EQ(dx[0], 1.0f);
    EXPECT_EQ(dx[1], 0.0f);
}

TEST_P(GeluVariant, BitsIndependentOfPositionAndLength)
{
    Rng rng(4242);
    std::vector<float> pool(1025);
    for (float &v : pool)
        v = static_cast<float>(rng.normal(0.0, 3.0));
    // Each value's bits alone (a length-1 row: the ragged-tail path).
    std::vector<float> solo_y(pool.size()), solo_dx(pool.size());
    const float dy = 0.75f;
    for (std::size_t j = 0; j < pool.size(); ++j) {
        k_->forward(&pool[j], &solo_y[j], 1);
        k_->backward(&pool[j], &dy, &solo_dx[j], 1);
    }
    for (const std::int64_t len : {1, 7, 15, 16, 17, 33, 1025}) {
        // Every offset of every length: rotate the pool so each value
        // visits each position of the row.
        for (std::int64_t shift = 0; shift < len; ++shift) {
            std::vector<float> x(static_cast<std::size_t>(len));
            std::vector<std::size_t> src(x.size());
            for (std::int64_t p = 0; p < len; ++p) {
                src[static_cast<std::size_t>(p)] =
                    static_cast<std::size_t>((p + shift) % len);
                x[static_cast<std::size_t>(p)] =
                    pool[src[static_cast<std::size_t>(p)]];
            }
            const std::vector<float> g(x.size(), dy);
            std::vector<float> y(x.size()), dx(x.size());
            k_->forward(x.data(), y.data(), len);
            k_->backward(x.data(), g.data(), dx.data(), len);
            for (std::size_t p = 0; p < x.size(); ++p) {
                ASSERT_TRUE(sameBits(y[p], solo_y[src[p]]))
                    << "len=" << len << " shift=" << shift << " pos=" << p;
                ASSERT_TRUE(sameBits(dx[p], solo_dx[src[p]]))
                    << "len=" << len << " shift=" << shift << " pos=" << p;
            }
            if (len == 1025 && shift > 40)
                break; // every position mod 16 is covered by then
        }
    }
}

TEST_P(GeluVariant, InPlaceMatchesOutOfPlace)
{
    Rng rng(99);
    std::vector<float> x(100), dy(100);
    for (std::size_t i = 0; i < x.size(); ++i) {
        x[i] = static_cast<float>(rng.normal());
        dy[i] = static_cast<float>(rng.normal());
    }
    std::vector<float> y(x.size()), dx(x.size());
    k_->forward(x.data(), y.data(), 100);
    k_->backward(x.data(), dy.data(), dx.data(), 100);
    std::vector<float> inplace = x;
    k_->forward(inplace.data(), inplace.data(), 100);
    EXPECT_EQ(0, std::memcmp(inplace.data(), y.data(), 400));
    std::vector<float> grad = dy;
    k_->backward(x.data(), grad.data(), grad.data(), 100);
    EXPECT_EQ(0, std::memcmp(grad.data(), dx.data(), 400));
}

INSTANTIATE_TEST_SUITE_P(Isas, GeluVariant,
                         ::testing::Range(0, kIsaCount), isaLabel);

TEST(GeluDispatch, PublicKernelsRunTheSelectedVariant)
{
    EXPECT_EQ(&selectedGeluKernels(), &geluKernels(selectedIsa()));
    Rng rng(5);
    // Ragged across chunks: 3 * 8192 + 5 elements, several threads.
    Tensor x(Shape({3 * 8192 + 5})), dy(x.shape());
    x.fillNormal(rng);
    dy.fillNormal(rng);
    Tensor y(x.shape()), dx(x.shape());
    setNumThreads(4);
    geluForward(x, y);
    geluBackward(x, dy, dx);
    setNumThreads(0);
    std::vector<float> ry(static_cast<std::size_t>(x.numel()));
    std::vector<float> rdx(ry.size());
    const GeluKernels &k = geluKernels(selectedIsa());
    k.forward(x.data(), ry.data(), x.numel());
    k.backward(x.data(), dy.data(), rdx.data(), x.numel());
    EXPECT_EQ(0, std::memcmp(ry.data(), y.data(), ry.size() * 4));
    EXPECT_EQ(0, std::memcmp(rdx.data(), dx.data(), rdx.size() * 4));
}

} // namespace
} // namespace bertprof

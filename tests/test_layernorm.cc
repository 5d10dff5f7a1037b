/** Tests for the LayerNorm kernels, including full gradient checks. */

#include <gtest/gtest.h>

#include "ops/layernorm.h"
#include "test_helpers.h"
#include "util/rng.h"

namespace bertprof {
namespace {

using testing::expectGradientsMatch;

struct LnFixture {
    std::int64_t rows;
    std::int64_t cols;
    Tensor in, gamma, beta, out, mean, rstd;

    LnFixture(std::int64_t r, std::int64_t c, std::uint64_t seed = 1)
        : rows(r), cols(c), in(Shape({r, c})), gamma(Shape({c})),
          beta(Shape({c})), out(Shape({r, c})), mean(Shape({r})),
          rstd(Shape({r}))
    {
        Rng rng(seed);
        in.fillNormal(rng, 0.5f, 2.0f);
        gamma.fillNormal(rng, 1.0f, 0.2f);
        beta.fillNormal(rng, 0.0f, 0.2f);
    }

    void forward() { layerNormForward(in, gamma, beta, out, mean, rstd); }

    double
    lossOfForward()
    {
        Tensor y(in.shape()), m(Shape({rows})), s(Shape({rows}));
        layerNormForward(in, gamma, beta, y, m, s);
        // Weighted sum so every element's gradient differs.
        double total = 0.0;
        for (std::int64_t i = 0; i < y.numel(); ++i)
            total += static_cast<double>(y.at(i)) * (0.1 * (i % 7) - 0.3);
        return total;
    }
};

TEST(LayerNorm, NormalizesRowsWithUnitGamma)
{
    LnFixture f(4, 16);
    f.gamma.fill(1.0f);
    f.beta.fill(0.0f);
    f.forward();
    for (std::int64_t r = 0; r < 4; ++r) {
        double mu = 0.0, var = 0.0;
        for (std::int64_t c = 0; c < 16; ++c)
            mu += f.out.at(r, c);
        mu /= 16.0;
        for (std::int64_t c = 0; c < 16; ++c) {
            const double d = f.out.at(r, c) - mu;
            var += d * d;
        }
        var /= 16.0;
        EXPECT_NEAR(mu, 0.0, 1e-5);
        EXPECT_NEAR(var, 1.0, 1e-3);
    }
}

TEST(LayerNorm, GammaBetaApplied)
{
    LnFixture f(1, 8);
    f.gamma.fill(2.0f);
    f.beta.fill(3.0f);
    f.forward();
    double mu = 0.0;
    for (std::int64_t c = 0; c < 8; ++c)
        mu += f.out.at(0, c);
    EXPECT_NEAR(mu / 8.0, 3.0, 1e-4); // mean shifted to beta
}

TEST(LayerNorm, SavesMeanAndRstd)
{
    LnFixture f(2, 4);
    f.in = Tensor(Shape({2, 4}), {1, 2, 3, 4, 10, 10, 10, 10});
    f.forward();
    EXPECT_NEAR(f.mean.at(0), 2.5f, 1e-5f);
    EXPECT_NEAR(f.mean.at(1), 10.0f, 1e-5f);
    // Second row has ~zero variance: rstd is finite and large.
    EXPECT_GT(f.rstd.at(1), 100.0f);
}

TEST(LayerNorm, InputGradientMatchesFiniteDifference)
{
    LnFixture f(3, 6);
    f.forward();
    Tensor dout(f.in.shape());
    for (std::int64_t i = 0; i < dout.numel(); ++i)
        dout.at(i) = static_cast<float>(0.1 * (i % 7) - 0.3);
    Tensor din(f.in.shape()), dgamma(f.gamma.shape()),
        dbeta(f.beta.shape());
    layerNormBackward(f.in, f.gamma, f.mean, f.rstd, dout, din, dgamma,
                      dbeta);
    auto loss = [&]() { return f.lossOfForward(); };
    expectGradientsMatch(f.in, loss, din, 1e-3, 2e-2);
}

TEST(LayerNorm, GammaGradientMatchesFiniteDifference)
{
    LnFixture f(3, 6, 7);
    f.forward();
    Tensor dout(f.in.shape());
    for (std::int64_t i = 0; i < dout.numel(); ++i)
        dout.at(i) = static_cast<float>(0.1 * (i % 7) - 0.3);
    Tensor din(f.in.shape()), dgamma(f.gamma.shape()),
        dbeta(f.beta.shape());
    layerNormBackward(f.in, f.gamma, f.mean, f.rstd, dout, din, dgamma,
                      dbeta);
    auto loss = [&]() { return f.lossOfForward(); };
    expectGradientsMatch(f.gamma, loss, dgamma, 1e-3, 2e-2);
    expectGradientsMatch(f.beta, loss, dbeta, 1e-3, 2e-2);
}

TEST(LayerNorm, InputGradientSumsToZeroPerRow)
{
    // LN output is invariant to constant row shifts, so din must be
    // orthogonal to the constant vector.
    LnFixture f(2, 8, 13);
    f.forward();
    Tensor dout(f.in.shape());
    Rng rng(3);
    dout.fillNormal(rng);
    Tensor din(f.in.shape()), dgamma(f.gamma.shape()),
        dbeta(f.beta.shape());
    layerNormBackward(f.in, f.gamma, f.mean, f.rstd, dout, din, dgamma,
                      dbeta);
    for (std::int64_t r = 0; r < 2; ++r) {
        double row = 0.0;
        for (std::int64_t c = 0; c < 8; ++c)
            row += din.at(r, c);
        EXPECT_NEAR(row, 0.0, 1e-4);
    }
}

TEST(LayerNorm, ZeroWidthRowsForwardIsNoOp)
{
    Tensor in(Shape({3, 0})), gamma(Shape({0})), beta(Shape({0}));
    Tensor out(Shape({3, 0})), mean(Shape({3})), rstd(Shape({3}));
    mean.fill(7.0f);
    const KernelStats s =
        layerNormForward(in, gamma, beta, out, mean, rstd);
    EXPECT_EQ(s.flops, 0);
    EXPECT_EQ(s.bytesRead + s.bytesWritten, 0);
    EXPECT_EQ(mean.at(0), 7.0f); // untouched: an empty row has no mean
}

TEST(LayerNorm, ZeroWidthRowsBackwardIsNoOp)
{
    Tensor in(Shape({3, 0})), gamma(Shape({0}));
    Tensor mean(Shape({3})), rstd(Shape({3}));
    Tensor dout(Shape({3, 0})), din(Shape({3, 0}));
    Tensor dgamma(Shape({0})), dbeta(Shape({0}));
    const KernelStats s = layerNormBackward(in, gamma, mean, rstd, dout,
                                            din, dgamma, dbeta);
    EXPECT_EQ(s.flops, 0);
    EXPECT_EQ(s.bytesRead + s.bytesWritten, 0);
}

TEST(LayerNorm, ZeroRowsBackwardZeroesParameterGrads)
{
    Tensor in(Shape({0, 4})), gamma(Shape({4}));
    gamma.fill(1.0f);
    Tensor mean(Shape({0})), rstd(Shape({0}));
    Tensor dout(Shape({0, 4})), din(Shape({0, 4}));
    Tensor dgamma(Shape({4})), dbeta(Shape({4}));
    dgamma.fill(3.0f);
    dbeta.fill(3.0f);
    layerNormBackward(in, gamma, mean, rstd, dout, din, dgamma, dbeta);
    for (std::int64_t c = 0; c < 4; ++c) {
        EXPECT_EQ(dgamma.at(c), 0.0f);
        EXPECT_EQ(dbeta.at(c), 0.0f);
    }
}

} // namespace
} // namespace bertprof

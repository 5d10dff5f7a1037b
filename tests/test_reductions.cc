/**
 * The pretrain step's reductions against the loops they replaced,
 * kept here as oracles:
 * - row-order column sums (biasBackward, LayerNorm dgamma/dbeta)
 *   bitwise equal to the serial column-strided loops;
 * - float softmax cross-entropy with argmax, per ISA variant, within
 *   budget of the double loop and bitwise equal at 1/2/8 threads;
 * - the global gradient norm bitwise equal at 1/2/8 threads;
 * - GradScaler::unscale bitwise equal to the checked scalar loop on
 *   finite gradients, and zeroing everything on a non-finite one.
 */

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "nn/module.h"
#include "ops/cross_entropy.h"
#include "ops/elementwise.h"
#include "ops/layernorm.h"
#include "optim/grad_scaler.h"
#include "optim/optimizer.h"
#include "runtime/config.h"
#include "util/rng.h"

namespace bertprof {
namespace {

constexpr int kThreadCounts[] = {1, 2, 8};

bool
sameBits(const float *a, const float *b, std::int64_t n)
{
    return std::memcmp(a, b, static_cast<std::size_t>(n) * 4) == 0;
}

class ThreadCountTest : public ::testing::Test
{
  protected:
    void TearDown() override { setNumThreads(0); }
};

// ---------------------------------------------------------------------
// Column sums
// ---------------------------------------------------------------------

/** The strided loop biasBackward ran before it used columnSums. */
std::vector<float>
biasBackwardOracle(const Tensor &dout, std::int64_t rows, std::int64_t cols)
{
    std::vector<float> dbias(static_cast<std::size_t>(cols), 0.0f);
    for (std::int64_t c = 0; c < cols; ++c)
        for (std::int64_t r = 0; r < rows; ++r)
            dbias[static_cast<std::size_t>(c)] += dout.data()[r * cols + c];
    return dbias;
}

class ColumnSums : public ThreadCountTest
{
};

TEST_F(ColumnSums, BiasBackwardBitwiseEqualsStridedLoop)
{
    Rng rng(2101);
    for (const std::int64_t rows : {0, 1, 7, 1024}) {
        for (const std::int64_t cols : {1, 3, 17, 1000, 1024}) {
            Tensor dout(Shape({rows, cols}));
            dout.fillNormal(rng);
            const std::vector<float> want =
                biasBackwardOracle(dout, rows, cols);
            for (const int threads : kThreadCounts) {
                setNumThreads(threads);
                Tensor dbias(Shape({cols}));
                dbias.fill(-1.0f); // every column must be overwritten
                biasBackward(dout, dbias);
                EXPECT_TRUE(sameBits(dbias.data(), want.data(), cols))
                    << rows << "x" << cols << " at " << threads
                    << " threads";
            }
        }
    }
}

TEST_F(ColumnSums, LayerNormParamGradsBitwiseEqualStridedLoop)
{
    Rng rng(2102);
    for (const std::int64_t rows : {1, 7, 1024}) {
        for (const std::int64_t cols : {1, 3, 17, 1000, 1024}) {
            Tensor in(Shape({rows, cols})), dout(in.shape());
            Tensor gamma(Shape({cols})), beta(gamma.shape());
            in.fillNormal(rng);
            dout.fillNormal(rng);
            gamma.fillNormal(rng, 1.0f, 0.1f);
            beta.fillNormal(rng);
            Tensor out(in.shape()), mean(Shape({rows})), rstd(mean.shape());
            layerNormForward(in, gamma, beta, out, mean, rstd, 1e-5f);

            // The dgamma/dbeta loop layerNormBackward ran before.
            std::vector<float> want_g(static_cast<std::size_t>(cols));
            std::vector<float> want_b(want_g.size());
            for (std::int64_t c = 0; c < cols; ++c) {
                float dg = 0.0f, db = 0.0f;
                for (std::int64_t r = 0; r < rows; ++r) {
                    const double mu = mean.data()[r];
                    const double rs = rstd.data()[r];
                    const float dyv = dout.data()[r * cols + c];
                    const double xhat = (in.data()[r * cols + c] - mu) * rs;
                    dg += static_cast<float>(dyv * xhat);
                    db += dyv;
                }
                want_g[static_cast<std::size_t>(c)] = dg;
                want_b[static_cast<std::size_t>(c)] = db;
            }
            for (const int threads : kThreadCounts) {
                setNumThreads(threads);
                Tensor din(in.shape()), dgamma(gamma.shape()),
                    dbeta(gamma.shape());
                layerNormBackward(in, gamma, mean, rstd, dout, din, dgamma,
                                  dbeta);
                EXPECT_TRUE(sameBits(dgamma.data(), want_g.data(), cols))
                    << "dgamma " << rows << "x" << cols << " at "
                    << threads << " threads";
                EXPECT_TRUE(sameBits(dbeta.data(), want_b.data(), cols))
                    << "dbeta " << rows << "x" << cols << " at " << threads
                    << " threads";
            }
        }
    }
}

// ---------------------------------------------------------------------
// Softmax cross-entropy, per ISA variant
// ---------------------------------------------------------------------

/** The double loop softmaxCrossEntropy ran before, with the strict-`>`
 * argmax the pretrainer and classifier ran beside it, and the loss
 * scale applied to dlogits. */
struct CrossEntropyOracle {
    double loss = 0.0;
    std::int64_t count = 0;
    std::int64_t correct = 0;
    std::vector<double> dlogits;
};

CrossEntropyOracle
crossEntropyOracle(const Tensor &logits,
                   const std::vector<std::int64_t> &labels,
                   double grad_scale)
{
    const std::int64_t rows = logits.shape().dim(0);
    const std::int64_t cols = logits.shape().dim(1);
    CrossEntropyOracle o;
    o.dlogits.assign(static_cast<std::size_t>(rows * cols), 0.0);
    for (const std::int64_t label : labels)
        o.count += label != kIgnoreIndex ? 1 : 0;
    if (o.count == 0)
        return o;
    const double inv_count = 1.0 / static_cast<double>(o.count);
    for (std::int64_t r = 0; r < rows; ++r) {
        const std::int64_t label = labels[static_cast<std::size_t>(r)];
        if (label == kIgnoreIndex)
            continue;
        const float *x = logits.data() + r * cols;
        std::int64_t best = 0;
        for (std::int64_t c = 1; c < cols; ++c)
            if (x[c] > x[best])
                best = c;
        o.correct += best == label ? 1 : 0;
        const double mx = x[best];
        double denom = 0.0;
        for (std::int64_t c = 0; c < cols; ++c)
            denom += std::exp(static_cast<double>(x[c]) - mx);
        o.loss += std::log(denom) - (static_cast<double>(x[label]) - mx);
        for (std::int64_t c = 0; c < cols; ++c) {
            const double p = std::exp(static_cast<double>(x[c]) - mx) / denom;
            o.dlogits[static_cast<std::size_t>(r * cols + c)] =
                grad_scale * inv_count * (p - (c == label ? 1.0 : 0.0));
        }
    }
    o.loss *= inv_count;
    return o;
}

// Error budgets (DESIGN.md §8), float rows against the double oracle:
// loss |l - ref| <= 1e-6 * max(1, |ref|); each dlogit
// |d - ref| <= 1e-5 * |ref| + 1e-7 * grad_scale / count — relative
// where the probability is large, absolute below 1e-7 of the row's
// unit (exp underflows to 0 for gaps below -87, and float
// probabilities below ~1e-7 of the row are noise to the update).
constexpr double kLossBudget = 1e-6;
constexpr double kGradRelBudget = 1e-5;
constexpr double kGradAbsBudget = 1e-7;

std::string
isaLabel(const ::testing::TestParamInfo<int> &info)
{
    return isaName(static_cast<Isa>(info.param));
}

class CrossEntropyVariant : public ::testing::TestWithParam<int>
{
  protected:
    void
    SetUp() override
    {
        isa_ = static_cast<Isa>(GetParam());
        if (!isaSupported(isa_))
            GTEST_SKIP() << isaName(isa_) << " is not available here";
        k_ = &crossEntropyKernels(isa_);
    }

    void TearDown() override { setNumThreads(0); }

    CrossEntropyResult
    run(const Tensor &logits, const std::vector<std::int64_t> &labels,
        Tensor &dlogits, float grad_scale = 1.0f) const
    {
        return softmaxCrossEntropy(logits, labels, dlogits, grad_scale, *k_);
    }

    Isa isa_ = Isa::Baseline;
    const CrossEntropyKernels *k_ = nullptr;
};

/** Labels in [0, cols) with every fourth row ignored. */
std::vector<std::int64_t>
someLabels(Rng &rng, std::int64_t rows, std::int64_t cols)
{
    std::vector<std::int64_t> labels(static_cast<std::size_t>(rows));
    for (std::int64_t r = 0; r < rows; ++r)
        labels[static_cast<std::size_t>(r)] =
            r % 4 == 3 ? kIgnoreIndex : rng.uniformInt(0, cols - 1);
    return labels;
}

TEST_P(CrossEntropyVariant, WithinBudgetOfDoubleOracle)
{
    Rng rng(2103);
    for (const std::int64_t cols : {1, 2, 3, 17, 1000, 8192, 8195}) {
        for (const float grad_scale : {1.0f, 1024.0f}) {
            const std::int64_t rows = 13;
            Tensor logits(Shape({rows, cols}));
            logits.fillNormal(rng, 0.0f, 4.0f);
            const std::vector<std::int64_t> labels =
                someLabels(rng, rows, cols);
            Tensor dlogits(logits.shape());
            const CrossEntropyResult got =
                run(logits, labels, dlogits, grad_scale);
            const CrossEntropyOracle want =
                crossEntropyOracle(logits, labels, grad_scale);
            ASSERT_EQ(got.count, want.count);
            EXPECT_EQ(got.correct, want.correct) << "cols=" << cols;
            const double loss_budget =
                kLossBudget * std::max(1.0, std::fabs(want.loss));
            EXPECT_LE(std::fabs(got.loss - want.loss), loss_budget)
                << "cols=" << cols << " loss " << got.loss << " vs "
                << want.loss;
            RecordProperty("loss_budget_share_" + std::to_string(cols),
                           std::to_string(std::fabs(got.loss - want.loss) /
                                          loss_budget));
            const double unit = grad_scale / static_cast<double>(want.count);
            double worst = 0.0;
            for (std::int64_t i = 0; i < rows * cols; ++i) {
                const double ref = want.dlogits[static_cast<std::size_t>(i)];
                const double err = std::fabs(dlogits.data()[i] - ref);
                const double budget =
                    kGradRelBudget * std::fabs(ref) + kGradAbsBudget * unit;
                worst = std::max(worst, err / budget);
                ASSERT_LE(err, budget)
                    << "cols=" << cols << " scale=" << grad_scale
                    << " flat index " << i;
            }
            RecordProperty("worst_budget_share_" + std::to_string(cols),
                           std::to_string(worst));
        }
    }
}

TEST_P(CrossEntropyVariant, BitwiseEqualAcrossThreadCounts)
{
    // 8192 columns give one row per parallel chunk, 1000 give eight.
    Rng rng(2104);
    for (const std::int64_t cols : {1000, 8192}) {
        const std::int64_t rows = 160;
        Tensor logits(Shape({rows, cols}));
        logits.fillNormal(rng, 0.0f, 2.0f);
        const std::vector<std::int64_t> labels = someLabels(rng, rows, cols);

        setNumThreads(1);
        Tensor d1(logits.shape());
        const CrossEntropyResult r1 = run(logits, labels, d1, 1024.0f);
        for (const int threads : {2, 8}) {
            setNumThreads(threads);
            Tensor dn(logits.shape());
            const CrossEntropyResult rn = run(logits, labels, dn, 1024.0f);
            EXPECT_EQ(std::memcmp(&r1.loss, &rn.loss, sizeof(double)), 0)
                << cols << " cols, " << threads << " threads";
            EXPECT_EQ(r1.correct, rn.correct);
            EXPECT_TRUE(sameBits(d1.data(), dn.data(), rows * cols))
                << cols << " cols, " << threads << " threads";
        }
    }
}

TEST_P(CrossEntropyVariant, IgnoredRowsComeBackExactlyZero)
{
    Rng rng(2105);
    const std::int64_t rows = 6, cols = 37;
    Tensor logits(Shape({rows, cols}));
    logits.fillNormal(rng);
    Tensor dlogits(logits.shape());
    dlogits.fill(std::numeric_limits<float>::quiet_NaN());
    const std::vector<std::int64_t> labels = {kIgnoreIndex, 3, kIgnoreIndex,
                                              0, 36, kIgnoreIndex};
    const CrossEntropyResult got = run(logits, labels, dlogits);
    EXPECT_EQ(got.count, 3);
    const std::vector<float> zeros(static_cast<std::size_t>(cols), 0.0f);
    for (const std::int64_t r : {0, 2, 5})
        EXPECT_TRUE(sameBits(dlogits.data() + r * cols, zeros.data(), cols))
            << "row " << r;
    for (const std::int64_t r : {1, 3, 4})
        for (std::int64_t c = 0; c < cols; ++c)
            EXPECT_TRUE(std::isfinite(dlogits.at(r, c)));
}

TEST_P(CrossEntropyVariant, AllIgnoredBatchGivesZeroAccuracyNotNan)
{
    Tensor logits(Shape({3, 5}));
    logits.fill(1.0f);
    Tensor dlogits(logits.shape());
    dlogits.fill(7.0f);
    const CrossEntropyResult got =
        run(logits, {kIgnoreIndex, kIgnoreIndex, kIgnoreIndex}, dlogits);
    EXPECT_EQ(got.count, 0);
    EXPECT_EQ(got.correct, 0);
    EXPECT_EQ(got.loss, 0.0);
    EXPECT_EQ(got.accuracy(), 0.0);
    for (std::int64_t i = 0; i < dlogits.numel(); ++i)
        EXPECT_EQ(dlogits.data()[i], 0.0f);
}

TEST_P(CrossEntropyVariant, TiedMaximaFirstIndexWins)
{
    // Ties placed within one lane, across lanes in both orders, across
    // vector blocks and in the ragged tail, for W = 4, 8 and 16; rows
    // are labeled at the first maximum and then at the later one.
    const std::int64_t cols = 45;
    const std::vector<std::pair<std::int64_t, std::int64_t>> ties = {
        {0, 1}, {3, 19}, {17, 2}, {5, 21}, {15, 16}, {30, 44}, {1, 40}};
    const std::int64_t rows = 2 * static_cast<std::int64_t>(ties.size());
    Tensor logits(Shape({rows, cols}));
    Rng rng(2106);
    logits.fillUniform(rng, -1.0f, 1.0f);
    std::vector<std::int64_t> labels;
    for (std::size_t t = 0; t < ties.size(); ++t) {
        const auto [a, b] = ties[t];
        const std::int64_t first = std::min(a, b), later = std::max(a, b);
        for (const std::int64_t r : {2 * static_cast<std::int64_t>(t),
                                     2 * static_cast<std::int64_t>(t) + 1}) {
            logits.at(r, a) = 3.0f;
            logits.at(r, b) = 3.0f;
        }
        labels.push_back(first);
        labels.push_back(later);
    }
    Tensor dlogits(logits.shape());
    const CrossEntropyResult got = run(logits, labels, dlogits);
    const CrossEntropyOracle want = crossEntropyOracle(logits, labels, 1.0);
    EXPECT_EQ(want.correct, static_cast<std::int64_t>(ties.size()));
    EXPECT_EQ(got.correct, want.correct);
    // Each first-max row alone must count as a hit.
    for (std::size_t t = 0; t < ties.size(); ++t) {
        Tensor d(logits.shape());
        std::vector<std::int64_t> one(static_cast<std::size_t>(rows),
                                      kIgnoreIndex);
        one[2 * t] = labels[2 * t];
        EXPECT_EQ(run(logits, one, d).correct, 1)
            << "tie " << ties[t].first << "/" << ties[t].second;
        one[2 * t] = kIgnoreIndex;
        one[2 * t + 1] = labels[2 * t + 1];
        EXPECT_EQ(run(logits, one, d).correct, 0)
            << "tie " << ties[t].first << "/" << ties[t].second;
    }
}

TEST_P(CrossEntropyVariant, GapsBelowMinus87UnderflowToZeroLossStaysFinite)
{
    const std::int64_t cols = 19;
    Tensor logits(Shape({2, cols}));
    for (std::int64_t c = 0; c < cols; ++c) {
        logits.at(0, c) = -100.0f - static_cast<float>(c);
        logits.at(1, c) = -200.0f;
    }
    logits.at(0, 0) = 0.0f;
    logits.at(1, 7) = 10.0f;
    Tensor dlogits(logits.shape());
    // Row 0 labeled at a far-below entry (gap -103); row 1 at its max.
    const CrossEntropyResult got = run(logits, {3, 7}, dlogits);
    ASSERT_TRUE(std::isfinite(got.loss));
    EXPECT_NEAR(got.loss, (103.0 + 0.0) / 2.0, 1e-4);
    EXPECT_EQ(got.correct, 1);
    for (std::int64_t c = 1; c < cols; ++c) {
        if (c != 3) {
            EXPECT_EQ(dlogits.at(0, c), 0.0f) << "c=" << c;
        }
        if (c != 7) {
            EXPECT_EQ(dlogits.at(1, c), 0.0f) << "c=" << c;
        }
    }
    EXPECT_EQ(dlogits.at(0, 3), -0.5f);
    EXPECT_EQ(dlogits.at(0, 0), 0.5f);
    EXPECT_EQ(dlogits.at(1, 7), 0.0f);
}

TEST_P(CrossEntropyVariant, NonFiniteLogitGivesNonFiniteLoss)
{
    Tensor logits(Shape({1, 9}));
    logits.fill(0.5f);
    Tensor dlogits(logits.shape());
    for (const float bad : {std::numeric_limits<float>::quiet_NaN(),
                            std::numeric_limits<float>::infinity()}) {
        logits.at(0, 4) = bad;
        EXPECT_FALSE(std::isfinite(run(logits, {2}, dlogits).loss));
    }
}

INSTANTIATE_TEST_SUITE_P(Variants, CrossEntropyVariant,
                         ::testing::Values(0, 1, 2), isaLabel);

// ---------------------------------------------------------------------
// Gradient passes
// ---------------------------------------------------------------------

/** Exposes the protected norm of the Optimizer base. */
class NormProbe : public Optimizer
{
  public:
    NormProbe() : Optimizer(OptimizerConfig{}) {}
    void step(const std::vector<Parameter *> &) override {}
    const char *kindName() const override { return "norm-probe"; }
    double norm(const std::vector<Parameter *> &p) { return globalGradNorm(p); }
};

/** Parameters of several chunk-grid sizes (one chunk, many, ragged),
 * with magnitudes spread over ten decades so that partial sums round
 * and a changed summation order shows in the bits. */
std::vector<Parameter>
gradientSet(Rng &rng)
{
    std::vector<Parameter> params;
    for (const std::int64_t n : {1, 7, 256, 8192, 8193, 100003, 1 << 20}) {
        params.emplace_back(std::to_string(n), Shape({n}));
        float *g = params.back().grad.data();
        for (std::int64_t i = 0; i < n; ++i)
            g[i] = static_cast<float>(rng.normal() *
                                      std::pow(10.0, rng.uniform(-7, 3)));
    }
    return params;
}

std::vector<Parameter *>
pointers(std::vector<Parameter> &params)
{
    std::vector<Parameter *> out;
    for (Parameter &p : params)
        out.push_back(&p);
    return out;
}

class GradPasses : public ThreadCountTest
{
};

TEST_F(GradPasses, GlobalGradNormBitwiseEqualAcrossThreadCounts)
{
    Rng rng(2107);
    std::vector<Parameter> params = gradientSet(rng);
    const std::vector<Parameter *> ptrs = pointers(params);
    NormProbe probe;

    double ref = 0.0;
    for (const Parameter &p : params)
        for (std::int64_t i = 0; i < p.grad.numel(); ++i)
            ref += static_cast<double>(p.grad.data()[i]) * p.grad.data()[i];
    ref = std::sqrt(ref);

    setNumThreads(1);
    const double one = probe.norm(ptrs);
    EXPECT_NEAR(one, ref, 1e-6 * ref);
    for (const int threads : {2, 8}) {
        setNumThreads(threads);
        const double n = probe.norm(ptrs);
        EXPECT_EQ(std::memcmp(&one, &n, sizeof(double)), 0)
            << threads << " threads: " << one << " vs " << n;
    }
}

TEST_F(GradPasses, UnscaleFiniteOutputBitwiseEqualsCheckedLoop)
{
    Rng rng(2108);
    std::vector<Parameter> params = gradientSet(rng);
    // Values the scaling must not disturb: zeros of both signs,
    // subnormals, the largest float.
    params[1].grad.data()[0] = -0.0f;
    params[1].grad.data()[1] = std::numeric_limits<float>::denorm_min();
    params[1].grad.data()[2] = std::numeric_limits<float>::max();
    params[1].grad.data()[3] = -std::numeric_limits<float>::min();
    GradScaler scaler(3.0f);
    const float inv = 1.0f / scaler.scale();
    std::vector<std::vector<float>> want;
    for (const Parameter &p : params) {
        want.emplace_back(p.grad.data(), p.grad.data() + p.grad.numel());
        for (float &g : want.back())
            g *= inv; // the checked loop's arithmetic
    }
    ASSERT_TRUE(scaler.unscale(pointers(params)));
    for (std::size_t i = 0; i < params.size(); ++i)
        EXPECT_TRUE(sameBits(params[i].grad.data(), want[i].data(),
                             params[i].grad.numel()))
            << params[i].name;
}

TEST_F(GradPasses, UnscaleNonFiniteAtEitherEndZeroesEveryGrad)
{
    const float bads[] = {std::numeric_limits<float>::quiet_NaN(),
                          std::numeric_limits<float>::infinity(),
                          -std::numeric_limits<float>::infinity()};
    for (const bool at_end : {false, true}) {
        for (const float bad : bads) {
            Rng rng(2109);
            std::vector<Parameter> params = gradientSet(rng);
            Tensor &g = at_end ? params.back().grad : params.front().grad;
            g.data()[at_end ? g.numel() - 1 : 0] = bad;
            GradScaler scaler(1024.0f);
            EXPECT_FALSE(scaler.unscale(pointers(params)));
            for (const Parameter &p : params)
                for (std::int64_t i = 0; i < p.grad.numel(); ++i)
                    ASSERT_EQ(p.grad.data()[i], 0.0f)
                        << p.name << "[" << i << "] bad=" << bad
                        << (at_end ? " at end" : " at start");
        }
    }
}

} // namespace
} // namespace bertprof

/** Tests for SGD, Adam, and LAMB. */

#include <cmath>

#include <gtest/gtest.h>

#include "optim/adam.h"
#include "optim/lamb.h"
#include "optim/sgd.h"

namespace bertprof {
namespace {

Parameter
makeParam(const std::string &name, std::vector<float> w,
          std::vector<float> g, bool no_decay = false)
{
    Parameter param(name,
                    Shape({static_cast<std::int64_t>(w.size())}),
                    no_decay);
    for (std::size_t i = 0; i < w.size(); ++i) {
        param.value.at(static_cast<std::int64_t>(i)) = w[i];
        param.grad.at(static_cast<std::int64_t>(i)) = g[i];
    }
    return param;
}

TEST(Sgd, PlainStep)
{
    Parameter p = makeParam("w", {1.0f, 2.0f}, {0.5f, -0.5f});
    OptimizerConfig config;
    config.learningRate = 0.1f;
    Sgd sgd(config);
    sgd.step({&p});
    EXPECT_NEAR(p.value.at(0), 0.95f, 1e-6f);
    EXPECT_NEAR(p.value.at(1), 2.05f, 1e-6f);
    EXPECT_EQ(sgd.stepCount(), 1);
}

TEST(Sgd, MomentumAccumulates)
{
    Parameter p = makeParam("w", {0.0f}, {1.0f});
    OptimizerConfig config;
    config.learningRate = 1.0f;
    Sgd sgd(config, /*momentum=*/0.9f);
    sgd.step({&p});
    EXPECT_NEAR(p.value.at(0), -1.0f, 1e-6f); // v = 1
    sgd.step({&p});
    EXPECT_NEAR(p.value.at(0), -2.9f, 1e-6f); // v = 0.9 + 1
}

TEST(Sgd, GradClippingScalesUpdate)
{
    Parameter p = makeParam("w", {0.0f}, {30.0f});
    OptimizerConfig config;
    config.learningRate = 1.0f;
    config.maxGradNorm = 3.0f;
    Sgd sgd(config);
    sgd.step({&p});
    EXPECT_NEAR(p.value.at(0), -3.0f, 1e-5f);
}

/** Reference Adam step in double precision. */
void
referenceAdam(std::vector<double> &w, const std::vector<double> &g,
              std::vector<double> &m, std::vector<double> &v, int t,
              double lr, double b1, double b2, double eps, double wd)
{
    for (std::size_t i = 0; i < w.size(); ++i) {
        m[i] = b1 * m[i] + (1 - b1) * g[i];
        v[i] = b2 * v[i] + (1 - b2) * g[i] * g[i];
        const double mhat = m[i] / (1 - std::pow(b1, t));
        const double vhat = v[i] / (1 - std::pow(b2, t));
        const double update = mhat / (std::sqrt(vhat) + eps) + wd * w[i];
        w[i] -= lr * update;
    }
}

TEST(Adam, MatchesReferenceOverThreeSteps)
{
    Parameter p = makeParam("w", {0.3f, -0.7f, 1.1f}, {0, 0, 0});
    OptimizerConfig config;
    config.learningRate = 0.01f;
    config.weightDecay = 0.1f;
    Adam adam(config);

    std::vector<double> w = {0.3, -0.7, 1.1};
    std::vector<double> m(3, 0.0), v(3, 0.0);
    const std::vector<std::vector<double>> grads = {
        {0.1, -0.2, 0.3}, {-0.4, 0.5, 0.1}, {0.2, 0.2, -0.2}};

    for (int t = 0; t < 3; ++t) {
        for (int i = 0; i < 3; ++i)
            p.grad.at(i) = static_cast<float>(grads[t][i]);
        adam.step({&p});
        referenceAdam(w, grads[static_cast<std::size_t>(t)], m, v, t + 1,
                      config.learningRate, config.beta1, config.beta2,
                      config.epsilon, config.weightDecay);
        for (int i = 0; i < 3; ++i)
            EXPECT_NEAR(p.value.at(i), w[static_cast<std::size_t>(i)],
                        1e-5);
    }
}

TEST(Adam, NoDecayParameterSkipsWeightDecay)
{
    Parameter decayed = makeParam("w", {1.0f}, {0.0f});
    Parameter no_decay = makeParam("b", {1.0f}, {0.0f}, true);
    OptimizerConfig config;
    config.learningRate = 0.1f;
    config.weightDecay = 0.5f;
    Adam adam(config);
    adam.step({&decayed, &no_decay});
    EXPECT_LT(decayed.value.at(0), 1.0f); // decayed toward zero
    EXPECT_FLOAT_EQ(no_decay.value.at(0), 1.0f);
}

TEST(Lamb, TrustRatioIsWeightNormOverUpdateNorm)
{
    Parameter p = makeParam("w", {3.0f, 4.0f}, {0.1f, 0.1f});
    OptimizerConfig config;
    config.learningRate = 0.0f; // isolate trust-ratio computation
    config.weightDecay = 0.0f;
    Lamb lamb(config);
    lamb.step({&p});
    // ||w|| = 5; update ~= sign-ish direction m/(sqrt(v)+eps).
    const double trust = lamb.lastTrustRatio(&p);
    EXPECT_GT(trust, 0.0);
    // update_i ~= 1 for each element after bias correction, so
    // ||u|| ~= sqrt(2) and trust ~= 5 / sqrt(2).
    EXPECT_NEAR(trust, 5.0 / std::sqrt(2.0), 0.1);
}

TEST(Lamb, MatchesDoubleReferenceWithinBudget)
{
    // The one-pass float update against the textbook LAMB in double
    // (DESIGN.md §8 error budgets): 3 steps on a parameter spanning
    // three chunks of the runtime's grid, weight decay on.
    constexpr std::int64_t kN = 20000;
    Rng rng(11);
    Parameter p("w", Shape({kN}));
    p.value.fillNormal(rng);
    OptimizerConfig config;
    config.learningRate = 1e-2f;
    Lamb lamb(config);
    std::vector<double> w(kN), m(kN, 0.0), v(kN, 0.0), u(kN);
    for (std::int64_t i = 0; i < kN; ++i)
        w[static_cast<std::size_t>(i)] = p.value.at(i);
    double trust = 1.0;
    for (int step = 1; step <= 3; ++step) {
        p.grad.fillNormal(rng);
        lamb.step({&p});
        const double bc1 = 1.0 - std::pow(config.beta1, step);
        const double bc2 = 1.0 - std::pow(config.beta2, step);
        double w_sq = 0.0, u_sq = 0.0;
        for (std::size_t i = 0; i < w.size(); ++i) {
            const double g = p.grad.at(static_cast<std::int64_t>(i));
            m[i] = config.beta1 * m[i] + (1.0 - config.beta1) * g;
            v[i] = config.beta2 * v[i] + (1.0 - config.beta2) * g * g;
            u[i] = (m[i] / bc1) / (std::sqrt(v[i] / bc2) + config.epsilon) +
                   config.weightDecay * w[i];
            w_sq += w[i] * w[i];
            u_sq += u[i] * u[i];
        }
        trust = std::sqrt(w_sq) / std::sqrt(u_sq);
        for (std::size_t i = 0; i < w.size(); ++i)
            w[i] -= config.learningRate * trust * u[i];
    }
    EXPECT_NEAR(lamb.lastTrustRatio(&p), trust, 1e-5 * trust);
    double max_err = 0.0;
    for (std::int64_t i = 0; i < kN; ++i)
        max_err = std::max(
            max_err,
            std::fabs(p.value.at(i) - w[static_cast<std::size_t>(i)]));
    EXPECT_LE(max_err, 1e-6);
}

TEST(Lamb, StepMovesAgainstGradient)
{
    Parameter p = makeParam("w", {1.0f, -1.0f}, {0.5f, -0.5f});
    OptimizerConfig config;
    config.learningRate = 0.01f;
    config.weightDecay = 0.0f;
    Lamb lamb(config);
    const float before0 = p.value.at(0);
    const float before1 = p.value.at(1);
    lamb.step({&p});
    EXPECT_LT(p.value.at(0), before0);
    EXPECT_GT(p.value.at(1), before1);
}

TEST(Lamb, ZeroGradientLeavesWeightsAlmostStill)
{
    Parameter p = makeParam("w", {2.0f}, {0.0f});
    OptimizerConfig config;
    config.learningRate = 0.1f;
    config.weightDecay = 0.0f;
    Lamb lamb(config);
    lamb.step({&p});
    EXPECT_NEAR(p.value.at(0), 2.0f, 1e-6f);
}

TEST(Lamb, GlobalNormSerializationUsesAllGradients)
{
    // With clipping, one huge gradient scales down all updates.
    Parameter small = makeParam("a", {0.0f}, {0.001f});
    Parameter huge = makeParam("b", {0.0f}, {1000.0f});
    OptimizerConfig config;
    config.learningRate = 0.1f;
    config.maxGradNorm = 1.0f;
    config.weightDecay = 0.0f;
    Lamb with_clip(config);
    with_clip.step({&small, &huge});

    Parameter small2 = makeParam("a", {0.0f}, {0.001f});
    OptimizerConfig no_clip = config;
    no_clip.maxGradNorm = 0.0f;
    Lamb without(no_clip);
    without.step({&small2});
    // The small parameter's effective gradient differs between runs
    // because the *other* tensor's norm dominated the global norm.
    EXPECT_NE(small.value.at(0), small2.value.at(0));
}

TEST(Lamb, ConvergesOnQuadraticBowl)
{
    // Minimize f(w) = 0.5 * ||w - target||^2.
    Parameter p("w", Shape({4}));
    const float target[4] = {1.0f, -2.0f, 0.5f, 3.0f};
    OptimizerConfig config;
    config.learningRate = 0.05f;
    config.weightDecay = 0.0f;
    Lamb lamb(config);
    for (int it = 0; it < 300; ++it) {
        for (int i = 0; i < 4; ++i)
            p.grad.at(i) = p.value.at(i) - target[i];
        lamb.step({&p});
    }
    for (int i = 0; i < 4; ++i)
        EXPECT_NEAR(p.value.at(i), target[i], 0.2f);
}

TEST(Optimizers, ProfilerSeesTwoStagesPerTensor)
{
    Profiler profiler;
    Parameter a = makeParam("a", {1.0f}, {0.1f});
    Parameter b = makeParam("b", {1.0f}, {0.1f});
    OptimizerConfig config;
    Lamb lamb(config, &profiler);
    lamb.step({&a, &b});
    // grad-norm + 2 tensors x (stage1 + stage2).
    EXPECT_EQ(profiler.records().size(), 5u);
    const auto by_sub = profiler.bySubLayer();
    EXPECT_EQ(by_sub.at("LAMB stage 1").kernelCount, 2);
    EXPECT_EQ(by_sub.at("LAMB stage 2").kernelCount, 2);
    EXPECT_EQ(by_sub.at("Grad L2 norm").kernelCount, 1);
}

TEST(Optimizers, LearningRateCanBeAdjusted)
{
    Parameter p = makeParam("w", {0.0f}, {1.0f});
    OptimizerConfig config;
    config.learningRate = 0.0f;
    Sgd sgd(config);
    sgd.step({&p});
    EXPECT_FLOAT_EQ(p.value.at(0), 0.0f);
    sgd.setLearningRate(1.0f);
    sgd.step({&p});
    EXPECT_FLOAT_EQ(p.value.at(0), -1.0f);
}

} // namespace
} // namespace bertprof

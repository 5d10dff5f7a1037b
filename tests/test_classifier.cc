/** Tests for the substrate fine-tuning classifier and gradient
 *  accumulation. */

#include <cmath>

#include <gtest/gtest.h>

#include "core/characterizer.h"
#include "data/synthetic.h"
#include "nn/bert_classifier.h"
#include "optim/adam.h"
#include "test_helpers.h"
#include "trace/bert_trace_builder.h"

namespace bertprof {
namespace {

BertConfig
tinyClassifierConfig()
{
    BertConfig config = testing::tinyBertConfig();
    config.taskHead = TaskHead::SequenceClassification;
    config.numClasses = 2;
    config.optimizer = OptimizerKind::Adam;
    return config;
}

TEST(BertClassifier, LossStartsNearLogClasses)
{
    const BertConfig config = tinyClassifierConfig();
    NnRuntime rt;
    rt.dropoutP = 0.0f;
    BertClassifier classifier(config, &rt);
    Rng init(31);
    classifier.initialize(init);
    SyntheticDataset dataset(config, 41);
    const auto result =
        classifier.forwardBackward(dataset.nextClassificationBatch());
    EXPECT_NEAR(result.loss, std::log(2.0), 0.5);
    EXPECT_GE(result.accuracy, 0.0);
    EXPECT_LE(result.accuracy, 1.0);
}

TEST(BertClassifier, FineTuningLearnsTheStripeTask)
{
    const BertConfig config = tinyClassifierConfig();
    NnRuntime rt;
    rt.dropoutP = 0.0f;
    BertClassifier classifier(config, &rt);
    Rng init(32);
    classifier.initialize(init);
    SyntheticDataset dataset(config, 42);

    OptimizerConfig opt_config;
    opt_config.learningRate = 2e-3f;
    opt_config.weightDecay = 0.0f;
    Adam adam(opt_config);
    auto params = classifier.parameters();

    double first = 0.0, last = 0.0;
    const int iters = 30;
    for (int it = 0; it < iters; ++it) {
        classifier.zeroGrad();
        const auto result = classifier.forwardBackward(
            dataset.nextClassificationBatch());
        if (it < 5)
            first += result.loss;
        if (it >= iters - 5)
            last += result.loss;
        adam.step(params);
    }
    EXPECT_LT(last, first) << "classification fine-tuning did not learn";
}

TEST(BertClassifier, PredictIsConsistentWithLogits)
{
    const BertConfig config = tinyClassifierConfig();
    NnRuntime rt;
    BertClassifier classifier(config, &rt);
    Rng init(33);
    classifier.initialize(init);
    SyntheticDataset dataset(config, 43);
    const auto batch = dataset.nextClassificationBatch();
    const auto predictions = classifier.predict(batch);
    ASSERT_EQ(predictions.size(),
              static_cast<std::size_t>(config.batch));
    for (auto p : predictions) {
        EXPECT_GE(p, 0);
        EXPECT_LT(p, config.numClasses);
    }
}

TEST(BertClassifier, StepAccuracyMatchesPredictArgmax)
{
    // The step's accuracy comes from the cross-entropy pass's folded
    // argmax; predict() keeps the strict-`>` loop. Without dropout both
    // see the same logits, so they must agree batch by batch.
    BertConfig config = tinyClassifierConfig();
    config.numClasses = 5;
    config.batch = 8;
    NnRuntime rt;
    rt.dropoutP = 0.0f;
    BertClassifier classifier(config, &rt);
    Rng init(34);
    classifier.initialize(init);
    SyntheticDataset dataset(config, 44);
    for (int it = 0; it < 4; ++it) {
        const auto batch = dataset.nextClassificationBatch();
        const auto predictions = classifier.predict(batch);
        std::int64_t hits = 0;
        for (std::size_t b = 0; b < predictions.size(); ++b)
            hits += predictions[b] == batch.labels[b] ? 1 : 0;
        classifier.zeroGrad();
        const auto result = classifier.forwardBackward(batch);
        EXPECT_EQ(result.accuracy, static_cast<double>(hits) /
                                       static_cast<double>(config.batch))
            << "batch " << it;
    }
}

TEST(BertClassifier, ParameterCountMatchesConfig)
{
    const BertConfig config = tinyClassifierConfig();
    NnRuntime rt;
    BertClassifier classifier(config, &rt);
    EXPECT_EQ(classifier.parameterCount(), config.parameterCount());
}

TEST(BertClassifier, GemmFlopsMatchTraceBuilder)
{
    // Cross-validation for the fine-tuning head too.
    const BertConfig config = tinyClassifierConfig();
    NnRuntime rt;
    Profiler profiler;
    rt.profiler = &profiler;
    rt.dropoutP = 0.0f;
    BertClassifier classifier(config, &rt);
    Rng init(34);
    classifier.initialize(init);
    SyntheticDataset dataset(config, 44);
    classifier.zeroGrad();
    classifier.forwardBackward(dataset.nextClassificationBatch());

    std::int64_t substrate = 0;
    for (const auto &rec : profiler.records())
        if (rec.scope == LayerScope::Output &&
            (rec.kind == OpKind::Gemm ||
             rec.kind == OpKind::BatchedGemm))
            substrate += rec.stats.flops;
    BertTraceBuilder builder(config);
    std::int64_t modeled = 0;
    OpTrace trace = builder.buildForward();
    trace.append(builder.buildBackward());
    for (const auto &op : trace.ops)
        if (op.scope == LayerScope::Output &&
            (op.kind == OpKind::Gemm || op.kind == OpKind::BatchedGemm))
            modeled += op.stats.flops;
    EXPECT_EQ(substrate, modeled);
}

TEST(ClassificationData, LabelsWithinRangeAndBalancedish)
{
    BertConfig config = tinyClassifierConfig();
    config.numClasses = 3;
    SyntheticDataset dataset(config, 45);
    std::vector<int> histogram(3, 0);
    for (int i = 0; i < 60; ++i) {
        const auto batch = dataset.nextClassificationBatch();
        for (auto label : batch.labels) {
            ASSERT_GE(label, 0);
            ASSERT_LT(label, 3);
            ++histogram[static_cast<std::size_t>(label)];
        }
    }
    for (int count : histogram)
        EXPECT_GT(count, 10);
}

TEST(GradAccumulation, TraceRepeatsFwdBwdButNotUpdate)
{
    BertConfig config = withPhase1(bertLarge(), 8);
    BertConfig accum = config;
    accum.gradAccumulationSteps = 4;
    BertTraceBuilder base(config);
    BertTraceBuilder acc(accum);
    const OpTrace base_trace = base.buildIteration();
    const OpTrace acc_trace = acc.buildIteration();

    auto count_phase = [](const OpTrace &trace, Phase phase) {
        std::int64_t n = 0;
        for (const auto &op : trace.ops)
            n += op.phase == phase ? 1 : 0;
        return n;
    };
    EXPECT_EQ(count_phase(acc_trace, Phase::Fwd),
              4 * count_phase(base_trace, Phase::Fwd));
    EXPECT_EQ(count_phase(acc_trace, Phase::Update),
              count_phase(base_trace, Phase::Update));
}

TEST(GradAccumulation, LambShareShrinksWithAccumulation)
{
    // The paper's Takeaway 1 mechanism in reverse: more tokens per
    // update -> smaller LAMB share.
    Characterizer characterizer(mi100());
    BertConfig base = withPhase1(bertLarge(), 4);
    BertConfig accum = base;
    accum.gradAccumulationSteps = 8;
    const double lamb_base =
        characterizer.run(base).scopeShare("Optimizer");
    const double lamb_accum =
        characterizer.run(accum).scopeShare("Optimizer");
    EXPECT_LT(lamb_accum, 0.25 * lamb_base);
}

} // namespace
} // namespace bertprof

#include "nn/bert_classifier.h"

#include "ops/activation.h"
#include "ops/cross_entropy.h"
#include "ops/embedding.h"
#include "util/logging.h"

namespace bertprof {

BertClassifier::BertClassifier(const BertConfig &config, NnRuntime *rt)
    : config_(config), rt_(rt), model_(config, rt),
      pooler_("pooler", config.dModel, config.dModel, rt,
              LayerScope::Output, SubLayer::OutputOps),
      classifier_("classifier", config.dModel, config.numClasses, rt,
                  LayerScope::Output, SubLayer::OutputOps)
{
    BP_REQUIRE(config_.numClasses >= 2);
}

void
BertClassifier::initialize(Rng &rng, float stddev)
{
    model_.initialize(rng, stddev);
    pooler_.initialize(rng, stddev);
    classifier_.initialize(rng, stddev);
}

Tensor
BertClassifier::forwardLogits(const ClassificationBatch &batch,
                              Tensor &cls)
{
    Tensor hidden = model_.forward(batch.tokenIds, batch.segmentIds);
    std::vector<std::int64_t> cls_positions(
        static_cast<std::size_t>(config_.batch));
    for (std::int64_t b = 0; b < config_.batch; ++b)
        cls_positions[static_cast<std::size_t>(b)] = b * config_.seqLen;
    cls = Tensor(Shape({config_.batch, config_.dModel}));
    {
        ScopedKernel k(rt_->profiler, "cls.gather", OpKind::Gather,
                       Phase::Fwd, LayerScope::Output,
                       SubLayer::OutputOps);
        k.setStats(embeddingForward(hidden, cls_positions, cls));
    }
    Tensor pooled_pre = pooler_.forward(cls);
    savedPooled_ = Tensor(pooled_pre.shape());
    {
        ScopedKernel k(rt_->profiler, "pooler.tanh", OpKind::Elementwise,
                       Phase::Fwd, LayerScope::Output,
                       SubLayer::OutputOps);
        k.setStats(tanhForward(pooled_pre, savedPooled_));
    }
    return classifier_.forward(savedPooled_);
}

ClassificationStepResult
BertClassifier::forwardBackward(const ClassificationBatch &batch)
{
    BP_REQUIRE(static_cast<std::int64_t>(batch.labels.size()) ==
               config_.batch);
    Tensor cls;
    Tensor logits = forwardLogits(batch, cls);

    ClassificationStepResult result;
    Tensor dlogits(logits.shape());
    {
        ScopedKernel k(rt_->profiler, "classifier.loss",
                       OpKind::Reduction, Phase::Fwd, LayerScope::Output,
                       SubLayer::OutputOps);
        const CrossEntropyResult ce =
            softmaxCrossEntropy(logits, batch.labels, dlogits);
        k.setStats(ce.stats);
        result.loss = ce.loss;
        result.accuracy = ce.accuracy();
    }

    // Backward through the head and the encoder.
    Tensor dpooled = classifier_.backward(dlogits);
    Tensor dpooled_pre(dpooled.shape());
    {
        ScopedKernel k(rt_->profiler, "pooler.tanh.bwd",
                       OpKind::Elementwise, Phase::Bwd, LayerScope::Output,
                       SubLayer::OutputOps);
        k.setStats(tanhBackward(savedPooled_, dpooled, dpooled_pre));
    }
    Tensor dcls = pooler_.backward(dpooled_pre);

    Tensor dhidden(Shape({config_.tokens(), config_.dModel}));
    dhidden.fill(0.0f);
    std::vector<std::int64_t> cls_positions(
        static_cast<std::size_t>(config_.batch));
    for (std::int64_t b = 0; b < config_.batch; ++b)
        cls_positions[static_cast<std::size_t>(b)] = b * config_.seqLen;
    {
        ScopedKernel k(rt_->profiler, "cls.scatter", OpKind::Gather,
                       Phase::Bwd, LayerScope::Output,
                       SubLayer::OutputOps);
        k.setStats(embeddingBackward(dcls, cls_positions, dhidden));
    }
    model_.backward(dhidden);
    return result;
}

Tensor
BertClassifier::forwardLogitsEval(
    const std::vector<std::int64_t> &token_ids,
    const std::vector<std::int64_t> &segment_ids, std::int64_t batch,
    std::int64_t seq, const std::vector<std::int64_t> &lengths)
{
    BP_REQUIRE(!isTraining());
    Tensor hidden =
        model_.forwardEval(token_ids, segment_ids, batch, seq, lengths);
    std::vector<std::int64_t> cls_positions(
        static_cast<std::size_t>(batch));
    for (std::int64_t b = 0; b < batch; ++b)
        cls_positions[static_cast<std::size_t>(b)] = b * seq;
    Tensor cls(Shape({batch, config_.dModel}));
    {
        ScopedKernel k(rt_->profiler, "cls.gather", OpKind::Gather,
                       Phase::Fwd, LayerScope::Output,
                       SubLayer::OutputOps);
        k.setStats(embeddingForward(hidden, cls_positions, cls));
    }
    Tensor pooled_pre = pooler_.forward(cls);
    Tensor pooled(pooled_pre.shape());
    {
        ScopedKernel k(rt_->profiler, "pooler.tanh", OpKind::Elementwise,
                       Phase::Fwd, LayerScope::Output,
                       SubLayer::OutputOps);
        k.setStats(tanhForward(pooled_pre, pooled));
    }
    return classifier_.forward(pooled);
}

std::vector<std::int64_t>
BertClassifier::predict(const ClassificationBatch &batch)
{
    Tensor cls;
    Tensor logits = forwardLogits(batch, cls);
    std::vector<std::int64_t> predictions(
        static_cast<std::size_t>(config_.batch));
    for (std::int64_t b = 0; b < config_.batch; ++b) {
        std::int64_t best = 0;
        for (std::int64_t c = 1; c < config_.numClasses; ++c)
            if (logits.at(b, c) > logits.at(b, best))
                best = c;
        predictions[static_cast<std::size_t>(b)] = best;
    }
    return predictions;
}

void
BertClassifier::collectParameters(std::vector<Parameter *> &out)
{
    model_.collectParameters(out);
    pooler_.collectParameters(out);
    classifier_.collectParameters(out);
}

void
BertClassifier::collectChildren(std::vector<Module *> &out)
{
    out.push_back(&model_);
    out.push_back(&pooler_);
    out.push_back(&classifier_);
}

} // namespace bertprof

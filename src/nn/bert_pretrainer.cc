#include "nn/bert_pretrainer.h"

#include <limits>

#include "runtime/fault_injection.h"

#include "ops/activation.h"
#include "ops/cross_entropy.h"
#include "ops/elementwise.h"
#include "ops/embedding.h"
#include "ops/gemm.h"
#include "util/logging.h"

namespace bertprof {

BertPretrainer::BertPretrainer(const BertConfig &config, NnRuntime *rt)
    : config_(config), rt_(rt), model_(config, rt),
      pooler_("pooler", config.dModel, config.dModel, rt,
              LayerScope::Output, SubLayer::OutputOps),
      mlmTransform_("mlm.transform", config.dModel, config.dModel, rt,
                    LayerScope::Output, SubLayer::OutputOps),
      mlmLn_("mlm.ln", config.dModel, rt, LayerScope::Output,
             SubLayer::OutputOps),
      mlmDecoderBias_("mlm.decoder.bias", Shape({config.vocabSize}),
                      /*no_decay=*/true),
      nsp_("nsp", config.dModel, 2, rt, LayerScope::Output,
           SubLayer::OutputOps)
{
}

void
BertPretrainer::initialize(Rng &rng, float stddev)
{
    model_.initialize(rng, stddev);
    pooler_.initialize(rng, stddev);
    mlmTransform_.initialize(rng, stddev);
    nsp_.initialize(rng, stddev);
}

PretrainStepResult
BertPretrainer::forwardBackward(const PretrainBatch &batch,
                                float loss_scale)
{
    BP_REQUIRE(loss_scale > 0.0f);
    const std::int64_t tokens = config_.tokens();
    const std::int64_t d = config_.dModel;
    const std::int64_t p =
        static_cast<std::int64_t>(batch.mlmPositions.size());
    BP_REQUIRE(batch.mlmLabels.size() == batch.mlmPositions.size());
    BP_REQUIRE(static_cast<std::int64_t>(batch.nspLabels.size()) ==
               config_.batch);

    if (batch.seqLengths.empty())
        model_.clearPaddingMask();
    else
        model_.setPaddingMask(batch.seqLengths);
    Tensor hidden =
        model_.forward(batch.tokenIds, batch.segmentIds);

    // Fault site: corrupt the encoder output the way a flaky kernel
    // or bad DMA would. The poison propagates into both losses, so
    // lossFinite() below reports the step unusable.
    switch (faultAt("nn.activations")) {
    case FaultKind::NaN:
        hidden.data()[0] = std::numeric_limits<float>::quiet_NaN();
        break;
    case FaultKind::Inf:
        hidden.data()[0] = std::numeric_limits<float>::infinity();
        break;
    default:
        break;
    }

    PretrainStepResult result;
    Tensor dhidden(hidden.shape());
    dhidden.fill(0.0f);

    // ---- Masked-LM head ----
    Tensor mlm_in(Shape({p, d}));
    {
        ScopedKernel k(rt_->profiler, "mlm.gather", OpKind::Gather,
                       Phase::Fwd, LayerScope::Output, SubLayer::OutputOps);
        k.setStats(embeddingForward(hidden, batch.mlmPositions, mlm_in));
    }
    Tensor transformed = mlmTransform_.forward(mlm_in);
    Tensor activated(transformed.shape());
    {
        ScopedKernel k(rt_->profiler, "mlm.gelu", OpKind::Elementwise,
                       Phase::Fwd, LayerScope::Output, SubLayer::OutputOps);
        k.setStats(geluForward(transformed, activated));
    }
    Tensor normed = mlmLn_.forward(activated);

    // Decoder tied to the token embedding table: logits = h * E^T + b.
    Parameter &tok_table = model_.tokenEmbedding();
    Tensor logits(Shape({p, config_.vocabSize}));
    {
        ScopedKernel k(rt_->profiler, "mlm.decoder.fwd", OpKind::Gemm,
                       Phase::Fwd, LayerScope::Output, SubLayer::OutputOps);
        k.setStats(gemm(normed, tok_table.value, logits, false, true));
    }
    {
        ScopedKernel k(rt_->profiler, "mlm.decoder.bias",
                       OpKind::Elementwise, Phase::Fwd, LayerScope::Output,
                       SubLayer::OutputOps);
        k.setStats(biasForward(logits, mlmDecoderBias_.value, logits));
    }

    Tensor dlogits(logits.shape());
    {
        ScopedKernel k(rt_->profiler, "mlm.loss", OpKind::Reduction,
                       Phase::Fwd, LayerScope::Output, SubLayer::OutputOps);
        const CrossEntropyResult ce = softmaxCrossEntropy(
            logits, batch.mlmLabels, dlogits, loss_scale);
        k.setStats(ce.stats);
        result.mlmLoss = ce.loss;
        result.mlmAccuracy = ce.accuracy();
    }

    // Decoder backward.
    {
        Tensor dbias(mlmDecoderBias_.value.shape());
        ScopedKernel k(rt_->profiler, "mlm.decoder.bias.bwd",
                       OpKind::Reduction, Phase::Bwd, LayerScope::Output,
                       SubLayer::OutputOps);
        k.setStats(biasBackward(dlogits, dbias));
        accumulate(mlmDecoderBias_.grad, dbias);
    }
    {
        Tensor dtable(tok_table.value.shape());
        ScopedKernel k(rt_->profiler, "mlm.decoder.wgrad", OpKind::Gemm,
                       Phase::Bwd, LayerScope::Output, SubLayer::OutputOps);
        k.setStats(gemm(dlogits, normed, dtable, true, false));
        accumulate(tok_table.grad, dtable);
    }
    Tensor dnormed(normed.shape());
    {
        ScopedKernel k(rt_->profiler, "mlm.decoder.dgrad", OpKind::Gemm,
                       Phase::Bwd, LayerScope::Output, SubLayer::OutputOps);
        k.setStats(gemm(dlogits, tok_table.value, dnormed, false, false));
    }
    Tensor dactivated = mlmLn_.backward(dnormed);
    Tensor dtransformed(transformed.shape());
    {
        ScopedKernel k(rt_->profiler, "mlm.gelu.bwd", OpKind::Elementwise,
                       Phase::Bwd, LayerScope::Output, SubLayer::OutputOps);
        k.setStats(geluBackward(transformed, dactivated, dtransformed));
    }
    Tensor dmlm_in = mlmTransform_.backward(dtransformed);
    {
        ScopedKernel k(rt_->profiler, "mlm.scatter", OpKind::Gather,
                       Phase::Bwd, LayerScope::Output, SubLayer::OutputOps);
        k.setStats(
            embeddingBackward(dmlm_in, batch.mlmPositions, dhidden));
    }

    // ---- Next-sentence-prediction head ----
    std::vector<std::int64_t> cls_positions(
        static_cast<std::size_t>(config_.batch));
    for (std::int64_t b = 0; b < config_.batch; ++b)
        cls_positions[static_cast<std::size_t>(b)] = b * config_.seqLen;

    Tensor cls(Shape({config_.batch, d}));
    {
        ScopedKernel k(rt_->profiler, "nsp.gather", OpKind::Gather,
                       Phase::Fwd, LayerScope::Output, SubLayer::OutputOps);
        k.setStats(embeddingForward(hidden, cls_positions, cls));
    }
    Tensor pooled_pre = pooler_.forward(cls);
    Tensor pooled(pooled_pre.shape());
    {
        ScopedKernel k(rt_->profiler, "pooler.tanh", OpKind::Elementwise,
                       Phase::Fwd, LayerScope::Output, SubLayer::OutputOps);
        k.setStats(tanhForward(pooled_pre, pooled));
    }
    Tensor nsp_logits = nsp_.forward(pooled);
    Tensor dnsp_logits(nsp_logits.shape());
    {
        ScopedKernel k(rt_->profiler, "nsp.loss", OpKind::Reduction,
                       Phase::Fwd, LayerScope::Output, SubLayer::OutputOps);
        const CrossEntropyResult ce = softmaxCrossEntropy(
            nsp_logits, batch.nspLabels, dnsp_logits, loss_scale);
        k.setStats(ce.stats);
        result.nspLoss = ce.loss;
        result.nspAccuracy = ce.accuracy();
    }
    Tensor dpooled = nsp_.backward(dnsp_logits);
    Tensor dpooled_pre(dpooled.shape());
    {
        ScopedKernel k(rt_->profiler, "pooler.tanh.bwd",
                       OpKind::Elementwise, Phase::Bwd, LayerScope::Output,
                       SubLayer::OutputOps);
        k.setStats(tanhBackward(pooled, dpooled, dpooled_pre));
    }
    Tensor dcls = pooler_.backward(dpooled_pre);
    {
        ScopedKernel k(rt_->profiler, "nsp.scatter", OpKind::Gather,
                       Phase::Bwd, LayerScope::Output, SubLayer::OutputOps);
        k.setStats(embeddingBackward(dcls, cls_positions, dhidden));
    }

    // ---- Encoder backward ----
    // A non-finite loss means dhidden (and the head gradients) are
    // already poisoned; the encoder backward would only spread the
    // contamination (and trips BP_DCHECK_FINITE in debug builds).
    // The caller must skip the step — GradScaler::unscale zeroes the
    // partial head gradients it finds non-finite.
    if (result.lossFinite())
        model_.backward(dhidden);
    BP_ASSERT(tokens == hidden.shape().dim(0));
    return result;
}

Tensor
BertPretrainer::mlmLogitsEval(
    const std::vector<std::int64_t> &token_ids,
    const std::vector<std::int64_t> &segment_ids, std::int64_t batch,
    std::int64_t seq, const std::vector<std::int64_t> &lengths,
    const std::vector<std::int64_t> &mlm_positions)
{
    BP_REQUIRE(!isTraining());
    const std::int64_t d = config_.dModel;
    const std::int64_t p =
        static_cast<std::int64_t>(mlm_positions.size());
    BP_REQUIRE(p >= 1);
    for (std::int64_t pos : mlm_positions)
        BP_REQUIRE(pos >= 0 && pos < batch * seq);

    Tensor hidden =
        model_.forwardEval(token_ids, segment_ids, batch, seq, lengths);

    Tensor mlm_in(Shape({p, d}));
    {
        ScopedKernel k(rt_->profiler, "mlm.gather", OpKind::Gather,
                       Phase::Fwd, LayerScope::Output, SubLayer::OutputOps);
        k.setStats(embeddingForward(hidden, mlm_positions, mlm_in));
    }
    Tensor transformed = mlmTransform_.forward(mlm_in);
    Tensor activated(transformed.shape());
    {
        ScopedKernel k(rt_->profiler, "mlm.gelu", OpKind::Elementwise,
                       Phase::Fwd, LayerScope::Output, SubLayer::OutputOps);
        k.setStats(geluForward(transformed, activated));
    }
    Tensor normed = mlmLn_.forward(activated);

    Parameter &tok_table = model_.tokenEmbedding();
    Tensor logits(Shape({p, config_.vocabSize}));
    {
        ScopedKernel k(rt_->profiler, "mlm.decoder.fwd", OpKind::Gemm,
                       Phase::Fwd, LayerScope::Output, SubLayer::OutputOps);
        k.setStats(gemm(normed, tok_table.value, logits, false, true));
    }
    {
        ScopedKernel k(rt_->profiler, "mlm.decoder.bias",
                       OpKind::Elementwise, Phase::Fwd, LayerScope::Output,
                       SubLayer::OutputOps);
        k.setStats(biasForward(logits, mlmDecoderBias_.value, logits));
    }
    return logits;
}

void
BertPretrainer::collectParameters(std::vector<Parameter *> &out)
{
    model_.collectParameters(out);
    pooler_.collectParameters(out);
    mlmTransform_.collectParameters(out);
    mlmLn_.collectParameters(out);
    out.push_back(&mlmDecoderBias_);
    nsp_.collectParameters(out);
}

void
BertPretrainer::collectChildren(std::vector<Module *> &out)
{
    out.push_back(&model_);
    out.push_back(&pooler_);
    out.push_back(&mlmTransform_);
    out.push_back(&mlmLn_);
    out.push_back(&nsp_);
}

} // namespace bertprof

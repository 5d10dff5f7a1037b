#include "nn/feedforward.h"

#include "ops/activation.h"
#include "ops/fused.h"
#include "runtime/config.h"
#include "util/logging.h"

namespace bertprof {

FeedForward::FeedForward(const std::string &name, std::int64_t d_model,
                         std::int64_t d_ff, NnRuntime *rt, int layer)
    : rt_(rt), layer_(layer),
      fc1_(name + ".fc1", d_model, d_ff, rt, LayerScope::Transformer,
           SubLayer::FcGemm, layer),
      fc2_(name + ".fc2", d_ff, d_model, rt, LayerScope::Transformer,
           SubLayer::FcGemm, layer)
{
}

void
FeedForward::initialize(Rng &rng, float stddev)
{
    fc1_.initialize(rng, stddev);
    fc2_.initialize(rng, stddev);
}

Tensor
FeedForward::forward(const Tensor &x)
{
    if (fusionEnabled() && !isTraining()) {
        // Eval-only fusion: FC1 GEMM without its bias epilogue; the
        // bias rides along in the fused bias+GeLU kernel (bitwise vs
        // the unfused pair).
        savedPreGelu_ = Tensor();
        hasSaved_ = false;
        Tensor pre_gemm = fc1_.forwardGemm(x);
        Tensor activated(pre_gemm.shape());
        {
            ScopedKernel k(rt_->profiler, "bias_gelu.fwd",
                           OpKind::Elementwise, Phase::Fwd,
                           LayerScope::Transformer, SubLayer::FcGelu);
            k.setStats(fusedBiasGeluForward(pre_gemm, fc1_.bias().value,
                                            activated));
        }
        return fc2_.forward(activated);
    }

    Tensor pre = fc1_.forward(x);
    if (isTraining()) {
        savedPreGelu_ = pre.clone();
        hasSaved_ = true;
    } else {
        savedPreGelu_ = Tensor();
        hasSaved_ = false;
    }
    Tensor activated(pre.shape());
    {
        ScopedKernel k(rt_->profiler, "gelu.fwd", OpKind::Elementwise,
                       Phase::Fwd, LayerScope::Transformer,
                       SubLayer::FcGelu);
        k.setStats(geluForward(pre, activated));
    }
    return fc2_.forward(activated);
}

Tensor
FeedForward::backward(const Tensor &dout)
{
    BP_REQUIRE(hasSaved_);
    Tensor dactivated = fc2_.backward(dout);
    Tensor dpre(dactivated.shape());
    {
        ScopedKernel k(rt_->profiler, "gelu.bwd", OpKind::Elementwise,
                       Phase::Bwd, LayerScope::Transformer,
                       SubLayer::FcGelu);
        k.setStats(geluBackward(savedPreGelu_, dactivated, dpre));
    }
    return fc1_.backward(dpre);
}

void
FeedForward::collectParameters(std::vector<Parameter *> &out)
{
    fc1_.collectParameters(out);
    fc2_.collectParameters(out);
}

void
FeedForward::collectChildren(std::vector<Module *> &out)
{
    out.push_back(&fc1_);
    out.push_back(&fc2_);
}

} // namespace bertprof

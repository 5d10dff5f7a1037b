#include "nn/layer_norm.h"

#include "ops/elementwise.h"
#include "ops/fused.h"
#include "ops/layernorm.h"
#include "util/logging.h"

namespace bertprof {

LayerNorm::LayerNorm(const std::string &name, std::int64_t dim,
                     NnRuntime *rt, LayerScope scope, SubLayer sub,
                     int layer)
    : dim_(dim), rt_(rt), scope_(scope), sub_(sub), layer_(layer),
      gamma_(name + ".gamma", Shape({dim}), /*no_decay=*/true),
      beta_(name + ".beta", Shape({dim}), /*no_decay=*/true)
{
    BP_REQUIRE(rt_ != nullptr);
    gamma_.value.fill(1.0f);
}

Tensor
LayerNorm::forward(const Tensor &x)
{
    BP_REQUIRE(x.shape().rank() == 2 && x.shape().dim(1) == dim_);
    const std::int64_t rows = x.shape().dim(0);
    Tensor mean(Shape({rows}));
    Tensor rstd(Shape({rows}));

    Tensor y(x.shape());
    {
        ScopedKernel k(rt_->profiler, gamma_.name + ".ln.fwd",
                       OpKind::Reduction, Phase::Fwd, scope_, sub_);
        k.setStats(
            layerNormForward(x, gamma_.value, beta_.value, y, mean, rstd));
    }
    if (isTraining()) {
        savedInput_ = x.clone();
        savedMean_ = std::move(mean);
        savedRstd_ = std::move(rstd);
        hasSaved_ = true;
    } else {
        savedInput_ = Tensor();
        savedMean_ = Tensor();
        savedRstd_ = Tensor();
        hasSaved_ = false;
    }
    return y;
}

Tensor
LayerNorm::forwardFusedResidual(const Tensor &a, const Tensor &b)
{
    BP_REQUIRE(!isTraining());
    BP_REQUIRE(a.shape().rank() == 2 && a.shape().dim(1) == dim_);
    const std::int64_t rows = a.shape().dim(0);
    Tensor mean(Shape({rows}));
    Tensor rstd(Shape({rows}));
    Tensor y(a.shape());
    {
        ScopedKernel k(rt_->profiler, gamma_.name + ".res_ln.fwd",
                       OpKind::Reduction, Phase::Fwd, scope_, sub_);
        k.setStats(fusedResidualLayerNormForward(
            a, b, gamma_.value, beta_.value, y, mean, rstd));
    }
    savedInput_ = Tensor();
    savedMean_ = Tensor();
    savedRstd_ = Tensor();
    hasSaved_ = false;
    return y;
}

Tensor
LayerNorm::backward(const Tensor &dout)
{
    BP_REQUIRE(hasSaved_);
    Tensor dx(savedInput_.shape());
    Tensor dgamma(gamma_.value.shape());
    Tensor dbeta(beta_.value.shape());
    {
        ScopedKernel k(rt_->profiler, gamma_.name + ".ln.bwd",
                       OpKind::Reduction, Phase::Bwd, scope_, sub_);
        k.setStats(layerNormBackward(savedInput_, gamma_.value, savedMean_,
                                     savedRstd_, dout, dx, dgamma, dbeta));
    }
    accumulate(gamma_.grad, dgamma);
    accumulate(beta_.grad, dbeta);
    return dx;
}

void
LayerNorm::collectParameters(std::vector<Parameter *> &out)
{
    out.push_back(&gamma_);
    out.push_back(&beta_);
}

} // namespace bertprof

#include "nn/linear.h"

#include "ops/elementwise.h"
#include "ops/gemm.h"
#include "util/logging.h"

namespace bertprof {

Linear::Linear(const std::string &name, std::int64_t in_dim,
               std::int64_t out_dim, NnRuntime *rt, LayerScope scope,
               SubLayer sub, int layer)
    : inDim_(in_dim), outDim_(out_dim), rt_(rt), scope_(scope), sub_(sub),
      layer_(layer), weight_(name + ".w", Shape({out_dim, in_dim})),
      bias_(name + ".b", Shape({out_dim}), /*no_decay=*/true)
{
    BP_REQUIRE(rt_ != nullptr);
}

void
Linear::initialize(Rng &rng, float stddev)
{
    weight_.value.fillNormal(rng, 0.0f, stddev);
    bias_.value.fill(0.0f);
}

Tensor
Linear::projectGemm(const Tensor &x)
{
    BP_REQUIRE(x.shape().rank() == 2 && x.shape().dim(1) == inDim_);
    Tensor y(Shape({x.shape().dim(0), outDim_}));
    ScopedKernel k(rt_->profiler, weight_.name + ".fwd", OpKind::Gemm,
                   Phase::Fwd, scope_, sub_);
    k.setStats(gemm(x, weight_.value, y, false, true));
    return y;
}

Tensor
Linear::forward(const Tensor &x)
{
    if (isTraining()) {
        savedInput_ = x.clone();
        hasSavedInput_ = true;
    } else {
        // Forward-only: nothing retained, backward() must not follow.
        savedInput_ = Tensor();
        hasSavedInput_ = false;
    }

    Tensor y = projectGemm(x);
    {
        ScopedKernel k(rt_->profiler, bias_.name + ".fwd",
                       OpKind::Elementwise, Phase::Fwd, scope_, sub_);
        k.setStats(biasForward(y, bias_.value, y));
    }
    return y;
}

Tensor
Linear::forwardGemm(const Tensor &x)
{
    BP_REQUIRE(!isTraining());
    savedInput_ = Tensor();
    hasSavedInput_ = false;
    return projectGemm(x);
}

Tensor
Linear::backward(const Tensor &dout)
{
    BP_REQUIRE(hasSavedInput_);
    BP_REQUIRE(dout.shape().rank() == 2 && dout.shape().dim(1) == outDim_);
    BP_REQUIRE(dout.shape().dim(0) == savedInput_.shape().dim(0));

    {
        Tensor dbias(bias_.value.shape());
        ScopedKernel k(rt_->profiler, bias_.name + ".bwd",
                       OpKind::Reduction, Phase::Bwd, scope_, sub_);
        k.setStats(biasBackward(dout, dbias));
        accumulate(bias_.grad, dbias);
    }
    {
        // dW = dout^T * x  -> [out, in]
        Tensor dweight(weight_.value.shape());
        ScopedKernel k(rt_->profiler, weight_.name + ".wgrad",
                       OpKind::Gemm, Phase::Bwd, scope_, sub_);
        k.setStats(gemm(dout, savedInput_, dweight, true, false));
        accumulate(weight_.grad, dweight);
    }
    Tensor dx(savedInput_.shape());
    {
        // dx = dout * W -> [rows, in]
        ScopedKernel k(rt_->profiler, weight_.name + ".dgrad",
                       OpKind::Gemm, Phase::Bwd, scope_, sub_);
        k.setStats(gemm(dout, weight_.value, dx, false, false));
    }
    return dx;
}

void
Linear::collectParameters(std::vector<Parameter *> &out)
{
    out.push_back(&weight_);
    out.push_back(&bias_);
}

} // namespace bertprof

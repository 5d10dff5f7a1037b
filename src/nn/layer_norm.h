/**
 * @file
 * LayerNorm module wrapping the ops/layernorm kernels with learnable
 * gamma/beta parameters and saved forward state.
 */

#ifndef BERTPROF_NN_LAYER_NORM_H
#define BERTPROF_NN_LAYER_NORM_H

#include "nn/module.h"
#include "trace/taxonomy.h"

namespace bertprof {

/** Layer normalization over the last dimension. */
class LayerNorm : public Module
{
  public:
    LayerNorm(const std::string &name, std::int64_t dim, NnRuntime *rt,
              LayerScope scope = LayerScope::Transformer,
              SubLayer sub = SubLayer::DrRcLn, int layer = -1);

    /** Forward over [rows, dim]; saves state for backward. */
    Tensor forward(const Tensor &x);

    /**
     * Eval-only fused residual + LayerNorm forward: returns LN(a + b)
     * in one kernel, the sum never touching memory. Bitwise identical
     * to addForward then forward(). Retains nothing.
     */
    Tensor forwardFusedResidual(const Tensor &a, const Tensor &b);

    /** Backward; accumulates gamma/beta grads, returns dx. */
    Tensor backward(const Tensor &dout);

    void collectParameters(std::vector<Parameter *> &out) override;

    Parameter &gamma() { return gamma_; }
    Parameter &beta() { return beta_; }

  private:
    std::int64_t dim_;
    NnRuntime *rt_;
    LayerScope scope_;
    SubLayer sub_;
    int layer_;
    Parameter gamma_;
    Parameter beta_;
    Tensor savedInput_;
    Tensor savedMean_;
    Tensor savedRstd_;
    bool hasSaved_ = false;
};

} // namespace bertprof

#endif // BERTPROF_NN_LAYER_NORM_H

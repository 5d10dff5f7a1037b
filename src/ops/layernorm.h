/**
 * @file
 * Layer normalization (Ba et al.) over the last dimension, with the
 * full backward pass (input, gamma, beta gradients). This is the LN
 * kernel of the paper's DR+RC+LN group: a reduction (mean/variance)
 * followed by a few element-wise ops, hence low arithmetic intensity.
 */

#ifndef BERTPROF_OPS_LAYERNORM_H
#define BERTPROF_OPS_LAYERNORM_H

#include "ops/kernel_stats.h"
#include "tensor/tensor.h"

namespace bertprof {

/**
 * Normalize one row of `cols` floats: double mean and variance, then
 * y = float((x - mean) * rstd) * gamma + beta. Writes the row's mean
 * and rstd through `mean`/`rstd`. The one description of the LN row
 * math: layerNormForward and the fused residual+LN kernel both call
 * it, so they agree bitwise by construction. `y` may alias `x`.
 */
void layerNormRow(const float *x, const float *gamma, const float *beta,
                  std::int64_t cols, float eps, float *y, float *mean,
                  float *rstd);

/**
 * Forward: out = (in - mean) / sqrt(var + eps) * gamma + beta over
 * the last dim. Saves per-row mean and reciprocal stddev into the
 * provided [rows] tensors for the backward pass.
 */
KernelStats layerNormForward(const Tensor &in, const Tensor &gamma,
                             const Tensor &beta, Tensor &out, Tensor &mean,
                             Tensor &rstd, float eps = 1e-5f);

/**
 * Backward: given saved mean/rstd and the forward input, computes
 * din, dgamma, dbeta.
 */
KernelStats layerNormBackward(const Tensor &in, const Tensor &gamma,
                              const Tensor &mean, const Tensor &rstd,
                              const Tensor &dout, Tensor &din,
                              Tensor &dgamma, Tensor &dbeta);

} // namespace bertprof

#endif // BERTPROF_OPS_LAYERNORM_H

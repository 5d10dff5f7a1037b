/**
 * @file
 * Numerically stable softmax over the last dimension, with backward.
 * Invoked on the attention score matrices (the paper's SM kernel in
 * the Scale+Mask+DR+SM group).
 */

#ifndef BERTPROF_OPS_SOFTMAX_H
#define BERTPROF_OPS_SOFTMAX_H

#include "ops/kernel_stats.h"
#include "tensor/tensor.h"

namespace bertprof {

/**
 * Softmax of one row of `cols` floats (cols >= 1): float max, exp,
 * double-accumulated denominator, multiply by the float inverse. The
 * one description of the softmax row math: softmaxForward and the
 * fused eval attention both call it, so they agree bitwise on equal
 * inputs by construction. `y` may alias `x`.
 */
void softmaxRow(const float *x, float *y, std::int64_t cols);

/**
 * Row-wise softmax over the last dimension of `in` (any rank >= 1;
 * leading dims are flattened into rows).
 */
KernelStats softmaxForward(const Tensor &in, Tensor &out);

/**
 * Softmax backward using the saved forward output:
 * din = out * (dout - sum(dout * out, lastdim)).
 */
KernelStats softmaxBackward(const Tensor &out, const Tensor &dout,
                            Tensor &din);

} // namespace bertprof

#endif // BERTPROF_OPS_SOFTMAX_H

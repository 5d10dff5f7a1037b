/**
 * @file
 * Inverted dropout with an explicit mask tensor, matching the paper's
 * DR kernel (an element-wise multiply of the activation with a mask).
 */

#ifndef BERTPROF_OPS_DROPOUT_H
#define BERTPROF_OPS_DROPOUT_H

#include "ops/kernel_stats.h"
#include "tensor/tensor.h"
#include "util/rng.h"

namespace bertprof {

/**
 * Forward: draws a Bernoulli(1-p) mask scaled by 1/(1-p) into `mask`
 * and writes out = in * mask, in one parallel pass. The mask is
 * counter-based: one 64-bit key is taken from `rng` per call (none
 * when p == 0, where the mask is all ones), and element i is dropped
 * iff output i of the splitmix64 stream seeded with that key is below
 * p * 2^64. So the mask of a prefix is the
 * prefix of the mask, and its bits never depend on the thread count.
 */
KernelStats dropoutForward(const Tensor &in, float p, Rng &rng, Tensor &out,
                           Tensor &mask);

/** Backward: din = dout * mask (the saved forward mask). */
KernelStats dropoutBackward(const Tensor &dout, const Tensor &mask,
                            Tensor &din);

/**
 * Eval-mode dropout: an exact identity copy. Draws nothing from any
 * RNG stream and allocates no mask, so interleaving eval forwards
 * with training steps leaves the training dropout sequence bitwise
 * unchanged. Inference callers that can reuse `in` directly should;
 * this exists for sites that need a distinct output buffer.
 */
KernelStats dropoutEvalForward(const Tensor &in, Tensor &out);

} // namespace bertprof

#endif // BERTPROF_OPS_DROPOUT_H

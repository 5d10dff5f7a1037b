/**
 * @file
 * Activation kernels. BERT's FC sub-layer uses the exact (erf-based)
 * GeLU of Hendrycks & Gimpel, Eq. 1 of the paper:
 * GELU(x) = x * 0.5 * (1 + erf(x / sqrt(2))).
 */

#ifndef BERTPROF_OPS_ACTIVATION_H
#define BERTPROF_OPS_ACTIVATION_H

#include "ops/kernel_stats.h"
#include "tensor/tensor.h"

namespace bertprof {

/** out = GELU(in), element-wise, erf formulation evaluated in float
 * by the selected ISA variant's rows (ops/gelu_kernels.h); its error
 * budget against the double erf is in DESIGN.md. */
KernelStats geluForward(const Tensor &in, Tensor &out);

/**
 * din = dout * dGELU/dx evaluated at the saved forward input.
 * dGELU/dx = Phi(x) + x * phi(x), with Phi/phi the standard normal
 * CDF and PDF.
 */
KernelStats geluBackward(const Tensor &in, const Tensor &dout, Tensor &din);

/** out = max(in, 0) (used by baseline configs in tests). */
KernelStats reluForward(const Tensor &in, Tensor &out);

/** din = dout where in > 0 else 0. */
KernelStats reluBackward(const Tensor &in, const Tensor &dout, Tensor &din);

/** out = tanh(in) (BERT pooler activation). */
KernelStats tanhForward(const Tensor &in, Tensor &out);

/** din = dout * (1 - out^2), using the saved forward output. */
KernelStats tanhBackward(const Tensor &out, const Tensor &dout, Tensor &din);

} // namespace bertprof

#endif // BERTPROF_OPS_ACTIVATION_H

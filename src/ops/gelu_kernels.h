/**
 * @file
 * Float GeLU row kernels, built once per ISA variant like the packed
 * GEMM (ops/isa_dispatch.h): baseline in gelu_kernels.cc, AVX2+FMA in
 * gelu_kernels_avx2.cc, AVX-512 in gelu_kernels_avx512.cc, all from
 * the one template body in ops/gelu_kernels_impl.h. geluForward,
 * geluBackward (ops/activation.h) and the fused bias+GeLU
 * (ops/fused.h) run the selected variant's rows.
 *
 * Arithmetic: GELU(x) = x * Phi(x), with Phi(x) = q for x < 0 and
 * 1 - q otherwise, q = erfc(|x| / sqrt(2)) / 2. erfc uses the
 * Chebyshev fit erfc(z) = t * exp(-z^2 + P(t)), t = 1 / (1 + z/2)
 * (Numerical Recipes' erfcc, relative error < 1.2e-7), so the
 * negative tail is computed without cancellation; exp is a Cephes
 * degree-6 polynomial with a 2^n scale. The backward adds
 * x * phi(x), phi(x) = exp(-x^2 / 2) / sqrt(2 pi). All in float.
 * NaN and +-inf stay non-finite (no fmin/fmax clamp anywhere).
 *
 * Bits: every element runs the same vector expressions whether it
 * falls in a full vector or the ragged tail (the tail is staged
 * through a zero-padded vector), so an element's bits depend on its
 * value and the variant, never on its position or the row length.
 * Variants may differ from each other (FMA contraction).
 */

#ifndef BERTPROF_OPS_GELU_KERNELS_H
#define BERTPROF_OPS_GELU_KERNELS_H

#include <cstdint>

#include "ops/isa_dispatch.h"

namespace bertprof {

/** One compiled instance of the GeLU rows. `y` may equal `x` and
 * `dx` may equal `x` or `dy` (exact in-place); otherwise disjoint. */
struct GeluKernels {
    /** y[i] = GELU(x[i]) for i < n. */
    void (*forward)(const float *x, float *y, std::int64_t n);
    /** dx[i] = dy[i] * GELU'(x[i]) for i < n. */
    void (*backward)(const float *x, const float *dy, float *dx,
                     std::int64_t n);
};

/** The rows compiled for `isa`, which must be isaSupported(). */
const GeluKernels &geluKernels(Isa isa);

/** The rows of selectedIsa(). */
const GeluKernels &selectedGeluKernels();

} // namespace bertprof

#endif // BERTPROF_OPS_GELU_KERNELS_H

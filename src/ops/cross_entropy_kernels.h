/**
 * @file
 * Float softmax cross-entropy rows, built once per ISA variant like
 * the GeLU rows (ops/gelu_kernels.h, ops/isa_dispatch.h): baseline in
 * cross_entropy_kernels.cc, AVX2+FMA in cross_entropy_kernels_avx2.cc,
 * AVX-512 in cross_entropy_kernels_avx512.cc, all from the template
 * body in ops/cross_entropy_kernels_impl.h. softmaxCrossEntropy
 * (ops/cross_entropy.h) runs the selected variant's rows.
 *
 * One row is three passes over data that stays cache-resident after
 * the first: (1) the max and the first index holding it, in W lanes
 * merged by value then lowest index; (2) e = exp(x - max) with the
 * shared expNonPositive (ops/vec_math_impl.h), stored into the output
 * and summed in W float lanes merged in lane order; (3) the output
 * scaled by scale / sum. Gaps below -87 give exactly 0.
 *
 * Bits: the lane sums depend on the variant's W (and FMA contraction
 * on the variant), so variants may differ from each other; a row's
 * bits never depend on which thread runs it.
 */

#ifndef BERTPROF_OPS_CROSS_ENTROPY_KERNELS_H
#define BERTPROF_OPS_CROSS_ENTROPY_KERNELS_H

#include <cstdint>

#include "ops/isa_dispatch.h"

namespace bertprof {

/** What one softmax row leaves besides its output. */
struct SoftmaxRowStats {
    /** Largest element of the row. */
    float max = 0.0f;
    /** sum_c exp(x[c] - max), in float. */
    float sumExp = 0.0f;
    /** First index holding `max` (the strict-`>` argmax). */
    std::int64_t argmax = 0;
};

/** One compiled instance of the cross-entropy rows. */
struct CrossEntropyKernels {
    /**
     * dx[c] = scale * exp(x[c] - max) / sumExp for c < n (n >= 1,
     * n < 2^30: lane indices are int32); `dx` and `x` are disjoint.
     * Returns the row's stats.
     */
    SoftmaxRowStats (*scaledSoftmax)(const float *x, std::int64_t n,
                                     float scale, float *dx);
};

/** The rows compiled for `isa`, which must be isaSupported(). */
const CrossEntropyKernels &crossEntropyKernels(Isa isa);

/** The rows of selectedIsa(). */
const CrossEntropyKernels &selectedCrossEntropyKernels();

} // namespace bertprof

#endif // BERTPROF_OPS_CROSS_ENTROPY_KERNELS_H

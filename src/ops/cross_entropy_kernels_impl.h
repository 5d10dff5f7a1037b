/**
 * @file
 * Body of the float cross-entropy rows (ops/cross_entropy_kernels.h)
 * as one template on the vector width in floats. Included only by the
 * variant TUs — cross_entropy_kernels.cc (baseline, 4 lanes),
 * cross_entropy_kernels_avx2.cc (8) and cross_entropy_kernels_avx512.cc
 * (16) — each of which instantiates it once, compiled for its own ISA.
 *
 * Same linkage rule as ops/vec_math_impl.h: internal linkage only, no
 * call into another header's inline or template code.
 */

#ifndef BERTPROF_OPS_CROSS_ENTROPY_KERNELS_IMPL_H
#define BERTPROF_OPS_CROSS_ENTROPY_KERNELS_IMPL_H

#include <cstddef>
#include <cstdint>

#include "ops/cross_entropy_kernels.h"
#include "ops/vec_math_impl.h"

namespace bertprof {

/** Variant entry points, one per TU. */
const CrossEntropyKernels &crossEntropyKernelsBaseline();
const CrossEntropyKernels &crossEntropyKernelsAvx2();
const CrossEntropyKernels &crossEntropyKernelsAvx512();

namespace {

/**
 * A ragged tail is staged through a vector padded with -inf: padding
 * never wins the max (strict >), and exp(-inf - max) is 0, so it
 * changes neither the argmax nor the sum. Full vectors and the tail
 * run the same loop body.
 */
template <int W>
SoftmaxRowStats
scaledSoftmaxRow(const float *x, std::int64_t n, float scale, float *dx)
{
    typedef VecMath<W> V;
    typedef typename V::F F;
    typedef typename V::I I;
    const float neg_inf = -__builtin_inff();

    // Pass 1: per-lane running max and the first index that set it.
    F mx = V::splat(neg_inf);
    I idx = {};
    for (int l = 0; l < W; ++l)
        idx[l] = l;
    I arg = idx;
    for (std::int64_t i = 0; i < n; i += W) {
        const std::int64_t len = n - i < W ? n - i : W;
        F v = V::splat(neg_inf);
        if (len == W)
            __builtin_memcpy(&v, x + i, sizeof(F));
        else
            __builtin_memcpy(&v, x + i, static_cast<std::size_t>(len) * 4);
        const I gt = v > mx;
        mx = gt ? v : mx;
        arg = gt ? idx : arg;
        idx += V::splatI(W);
    }
    // Merge lanes: the larger value, and on a tie the lower index —
    // the first occurrence in the row.
    float m = mx[0];
    std::int32_t a = arg[0];
    for (int l = 1; l < W; ++l) {
        if (mx[l] > m || (mx[l] == m && arg[l] < a)) {
            m = mx[l];
            a = arg[l];
        }
    }

    // Pass 2: e = exp(x - max) into dx, summed in W lanes.
    const F vm = V::splat(m);
    F acc = V::splat(0.0f);
    for (std::int64_t i = 0; i < n; i += W) {
        const std::int64_t len = n - i < W ? n - i : W;
        const std::size_t bytes = static_cast<std::size_t>(len) * 4;
        F v = V::splat(neg_inf);
        if (len == W)
            __builtin_memcpy(&v, x + i, sizeof(F));
        else
            __builtin_memcpy(&v, x + i, bytes);
        const F e = V::expNonPositive(v - vm);
        acc += e;
        if (len == W)
            __builtin_memcpy(dx + i, &e, sizeof(F));
        else
            __builtin_memcpy(dx + i, &e, bytes);
    }
    float sum = acc[0];
    for (int l = 1; l < W; ++l)
        sum += acc[l];

    // Pass 3: normalize and scale in place.
    const float f = scale / sum;
    for (std::int64_t i = 0; i < n; ++i)
        dx[i] *= f;

    SoftmaxRowStats s;
    s.max = m;
    s.sumExp = sum;
    s.argmax = a;
    return s;
}

} // namespace

} // namespace bertprof

#endif // BERTPROF_OPS_CROSS_ENTROPY_KERNELS_IMPL_H

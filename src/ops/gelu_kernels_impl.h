/**
 * @file
 * Body of the float GeLU rows (ops/gelu_kernels.h) as one template on
 * the vector width in floats. Included only by the variant TUs —
 * gelu_kernels.cc (baseline, 4 lanes), gelu_kernels_avx2.cc (8) and
 * gelu_kernels_avx512.cc (16) — each of which instantiates it once,
 * compiled for its own ISA. The vector type and exp come from
 * ops/vec_math_impl.h, shared with the cross-entropy rows.
 *
 * As in ops/gemm_microkernel_impl.h, everything here has internal
 * linkage and calls no inline or template function from another
 * header, so a wide TU emits no weak (COMDAT) symbol that could put
 * wide instructions on a narrow CPU's path; the isa_variant_symbols_*
 * CTests check the wide objects for this.
 */

#ifndef BERTPROF_OPS_GELU_KERNELS_IMPL_H
#define BERTPROF_OPS_GELU_KERNELS_IMPL_H

#include <cstddef>
#include <cstdint>

#include "ops/gelu_kernels.h"
#include "ops/vec_math_impl.h"

namespace bertprof {

/** Variant entry points, one per TU. */
const GeluKernels &geluKernelsBaseline();
const GeluKernels &geluKernelsAvx2();
const GeluKernels &geluKernelsAvx512();

namespace {

template <int W> struct GeluVec : VecMath<W> {
    typedef typename VecMath<W>::F F;
    using VecMath<W>::splat;
    using VecMath<W>::expNonPositive;

    /** q = erfc(|x| / sqrt(2)) / 2 = Phi(-|x|), no cancellation. */
    static F
    halfErfc(F x)
    {
        const F ax = x < splat(0.0f) ? -x : x;
        const F t = splat(1.0f) /
                    (splat(1.0f) + splat(0.35355339059327376f) * ax);
        F p = splat(0.17087277f);
        p = p * t + splat(-0.82215223f);
        p = p * t + splat(1.48851587f);
        p = p * t + splat(-1.13520398f);
        p = p * t + splat(0.27886807f);
        p = p * t + splat(-0.18628806f);
        p = p * t + splat(0.09678418f);
        p = p * t + splat(0.37409196f);
        p = p * t + splat(1.00002368f);
        p = p * t + splat(-1.26551223f);
        // -z^2 = -x^2 / 2 from x itself: one rounding, not two.
        return splat(0.5f) * t *
               expNonPositive(splat(-0.5f) * (x * x) + p);
    }

    /** Phi(x), the standard normal CDF. */
    static F
    cdf(F x)
    {
        const F q = halfErfc(x);
        return x < splat(0.0f) ? q : splat(1.0f) - q;
    }

    static F
    forward(F x)
    {
        return x * cdf(x);
    }

    /** dy * (Phi(x) + x phi(x)). */
    static F
    backward(F x, F dy)
    {
        const F pdf = splat(0.3989422804014327f) *
                      expNonPositive(splat(-0.5f) * (x * x));
        return dy * (cdf(x) + x * pdf);
    }
};

/**
 * Row loops. A ragged tail is zero-padded into one vector and run
 * through the same loop body as a full vector, so there is exactly
 * one compiled copy of the arithmetic per element position.
 */
template <int W>
void
geluForwardRows(const float *x, float *y, std::int64_t n)
{
    typedef typename GeluVec<W>::F F;
    for (std::int64_t i = 0; i < n; i += W) {
        const std::int64_t len = n - i < W ? n - i : W;
        const std::size_t bytes = static_cast<std::size_t>(len) * 4;
        F v = {};
        if (len == W)
            __builtin_memcpy(&v, x + i, sizeof(F));
        else
            __builtin_memcpy(&v, x + i, bytes);
        const F r = GeluVec<W>::forward(v);
        if (len == W)
            __builtin_memcpy(y + i, &r, sizeof(F));
        else
            __builtin_memcpy(y + i, &r, bytes);
    }
}

template <int W>
void
geluBackwardRows(const float *x, const float *dy, float *dx, std::int64_t n)
{
    typedef typename GeluVec<W>::F F;
    for (std::int64_t i = 0; i < n; i += W) {
        const std::int64_t len = n - i < W ? n - i : W;
        const std::size_t bytes = static_cast<std::size_t>(len) * 4;
        F v = {}, g = {};
        if (len == W) {
            __builtin_memcpy(&v, x + i, sizeof(F));
            __builtin_memcpy(&g, dy + i, sizeof(F));
        } else {
            __builtin_memcpy(&v, x + i, bytes);
            __builtin_memcpy(&g, dy + i, bytes);
        }
        const F r = GeluVec<W>::backward(v, g);
        if (len == W)
            __builtin_memcpy(dx + i, &r, sizeof(F));
        else
            __builtin_memcpy(dx + i, &r, bytes);
    }
}

} // namespace

} // namespace bertprof

#endif // BERTPROF_OPS_GELU_KERNELS_IMPL_H

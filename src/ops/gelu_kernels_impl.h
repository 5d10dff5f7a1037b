/**
 * @file
 * Body of the float GeLU rows (ops/gelu_kernels.h) as one template on
 * the vector width in floats. Included only by the variant TUs —
 * gelu_kernels.cc (baseline, 4 lanes), gelu_kernels_avx2.cc (8) and
 * gelu_kernels_avx512.cc (16) — each of which instantiates it once,
 * compiled for its own ISA.
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

namespace bertprof {

/** Variant entry points, one per TU. */
const GeluKernels &geluKernelsBaseline();
const GeluKernels &geluKernelsAvx2();
const GeluKernels &geluKernelsAvx512();

namespace {

template <int W> struct GeluVec {
    typedef float F __attribute__((vector_size(W * sizeof(float))));
    typedef std::uint32_t U
        __attribute__((vector_size(W * sizeof(std::uint32_t))));

    static F
    splat(float s)
    {
        F v = {};
        return v + s;
    }

    /**
     * exp(a) for a <= 0 (or NaN): round a / ln2 to n with the 1.5 * 2^23
     * shifter, reduce r = a - n ln2 (two-part ln2), evaluate the Cephes
     * expf polynomial on r, scale by 2^n built in the exponent field.
     * Below -87 the result is 0 (2^n would leave the normal range); the
     * select keeps NaN, which fails the comparison, flowing through.
     */
    static F
    expNonPositive(F a)
    {
        const F shifter = splat(12582912.0f); // 0x1.8p23
        const F kf = a * splat(1.44269504088896341f) + shifter;
        const F n = kf - shifter;
        F r = a - n * splat(0.693359375f);
        r = r - n * splat(-2.12194440e-4f);
        F p = splat(1.9875691500e-4f);
        p = p * r + splat(1.3981999507e-3f);
        p = p * r + splat(8.3334519073e-3f);
        p = p * r + splat(4.1665795894e-2f);
        p = p * r + splat(1.6666665459e-1f);
        p = p * r + splat(5.0000001201e-1f);
        p = p * r * r + r + splat(1.0f);
        U kbits, sbits;
        __builtin_memcpy(&kbits, &kf, sizeof(F));
        __builtin_memcpy(&sbits, &shifter, sizeof(F));
        const U ebits = (kbits - sbits + 127u) << 23;
        F scale;
        __builtin_memcpy(&scale, &ebits, sizeof(F));
        const F e = p * scale;
        return a < splat(-87.0f) ? splat(0.0f) : e;
    }

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

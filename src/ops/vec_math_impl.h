/**
 * @file
 * Float vector math shared by the per-ISA row kernels (GeLU in
 * ops/gelu_kernels_impl.h, softmax cross-entropy in
 * ops/cross_entropy_kernels_impl.h): a vector type of W floats and
 * exp for non-positive arguments. Included only through those impl
 * headers, so every variant TU compiles its own copy for its ISA.
 *
 * As in ops/gemm_microkernel_impl.h, everything here has internal
 * linkage and calls no inline or template function from another
 * header, so a wide TU emits no weak (COMDAT) symbol that could put
 * wide instructions on a narrow CPU's path; the isa_variant_symbols_*
 * CTests check the wide objects for this.
 */

#ifndef BERTPROF_OPS_VEC_MATH_IMPL_H
#define BERTPROF_OPS_VEC_MATH_IMPL_H

#include <cstdint>

namespace bertprof {

namespace {

template <int W> struct VecMath {
    typedef float F __attribute__((vector_size(W * sizeof(float))));
    typedef std::uint32_t U
        __attribute__((vector_size(W * sizeof(std::uint32_t))));
    /** Lane indices and comparison masks. */
    typedef std::int32_t I
        __attribute__((vector_size(W * sizeof(std::int32_t))));

    static F
    splat(float s)
    {
        F v = {};
        return v + s;
    }

    static I
    splatI(std::int32_t s)
    {
        I v = {};
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
};

} // namespace

} // namespace bertprof

#endif // BERTPROF_OPS_VEC_MATH_IMPL_H

// Baseline variant of the packed GEMM engine (compiled for the
// build's default ISA), the per-thread packing buffers, and the
// run-time choice of variant.

#include "ops/gemm_microkernel.h"

#include <vector>

#include "ops/gemm_microkernel_impl.h"

namespace bertprof {

void
gemmPackedRowsBaseline(const float *a, const float *b, float *c,
                       std::int64_t m, std::int64_t n, std::int64_t k,
                       bool trans_a, bool trans_b, float alpha, float beta,
                       std::int64_t row_begin, std::int64_t row_end)
{
    packedRows<4, 8>(a, b, c, m, n, k, trans_a, trans_b, alpha, beta,
                     row_begin, row_end);
}

float *
gemmPackBufferA()
{
    thread_local std::vector<float> buf(
        static_cast<std::size_t>(kGemmMC * kGemmKC));
    return buf.data();
}

float *
gemmPackBufferB()
{
    thread_local std::vector<float> buf(
        static_cast<std::size_t>(kGemmNC * kGemmKC));
    return buf.data();
}

namespace {

bool
always()
{
    return true;
}

#if defined(BP_GEMM_X86_VARIANTS)
// __builtin_cpu_supports reports an AVX-family feature only when the
// OS also saves its register state (XCR0). __builtin_cpu_init makes
// the query safe from static initializers.
bool
hasAvx2Fma()
{
    __builtin_cpu_init();
    return __builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma");
}

bool
hasAvx512()
{
    return hasAvx2Fma() && __builtin_cpu_supports("avx512f");
}
#endif

constexpr GemmVariant kVariants[] = {
    {"baseline", 4, 8, gemmPackedRowsBaseline, always},
#if defined(BP_GEMM_X86_VARIANTS)
    {"avx2", 6, 16, gemmPackedRowsAvx2, hasAvx2Fma},
    {"avx512", 8, 32, gemmPackedRowsAvx512, hasAvx512},
#endif
};

} // namespace

std::span<const GemmVariant>
gemmVariants()
{
    return kVariants;
}

const GemmVariant &
selectedGemmVariant()
{
    // Never chosen by shape: one process runs one variant, so batched
    // vs solo and checkpoint-resume results stay bitwise comparable.
    static const GemmVariant *const selected = [] {
        const GemmVariant *widest = &kVariants[0];
        for (const GemmVariant &v : kVariants)
            if (v.hostSupports())
                widest = &v;
        return widest;
    }();
    return *selected;
}

const std::int64_t kGemmMR = selectedGemmVariant().mr;
const std::int64_t kGemmNR = selectedGemmVariant().nr;

void
gemmPackedRows(const float *a, const float *b, float *c, std::int64_t m,
               std::int64_t n, std::int64_t k, bool trans_a, bool trans_b,
               float alpha, float beta, std::int64_t row_begin,
               std::int64_t row_end)
{
    static const GemmRowsFn rows = selectedGemmVariant().rows;
    rows(a, b, c, m, n, k, trans_a, trans_b, alpha, beta, row_begin,
         row_end);
}

} // namespace bertprof

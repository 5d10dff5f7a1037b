// Baseline variant of the packed GEMM engine (compiled for the
// build's default ISA), the per-thread packing buffers, and the
// variant table ops/isa_dispatch.h indexes.

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

// Indexed by Isa: gemmVariants()[i].isa == Isa(i).
constexpr GemmVariant kVariants[] = {
    {"baseline", 4, 8, gemmPackedRowsBaseline, Isa::Baseline},
#if defined(BP_X86_ISA_VARIANTS)
    {"avx2", 6, 16, gemmPackedRowsAvx2, Isa::Avx2},
    {"avx512", 8, 32, gemmPackedRowsAvx512, Isa::Avx512},
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
    return kVariants[static_cast<int>(selectedIsa())];
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

/**
 * @file
 * Body of the packed GEMM engine as one template on the register tile
 * (MR x NR). Included only by the variant TUs — gemm_microkernel.cc
 * (baseline ISA), gemm_microkernel_avx2.cc and
 * gemm_microkernel_avx512.cc — each of which instantiates it once,
 * compiled for its own ISA.
 *
 * Everything defined here has internal linkage, and the code calls no
 * inline or template function from another header (hence no
 * std::min). A wide-ISA TU must not emit a weak (COMDAT) copy of a
 * symbol other TUs also define: the linker may keep that copy for
 * every caller, and CPUs without the ISA would hit SIGILL. The
 * gemm_variant_symbols_* CTests check the wide objects for this.
 */

#ifndef BERTPROF_OPS_GEMM_MICROKERNEL_IMPL_H
#define BERTPROF_OPS_GEMM_MICROKERNEL_IMPL_H

#include <cstdint>

#include "ops/gemm_microkernel.h"
#include "ops/pack.h"

namespace bertprof {

/** Variant entry points, one per TU; same contract as gemmPackedRows. */
void gemmPackedRowsBaseline(const float *a, const float *b, float *c,
                            std::int64_t m, std::int64_t n, std::int64_t k,
                            bool trans_a, bool trans_b, float alpha,
                            float beta, std::int64_t row_begin,
                            std::int64_t row_end);
void gemmPackedRowsAvx2(const float *a, const float *b, float *c,
                        std::int64_t m, std::int64_t n, std::int64_t k,
                        bool trans_a, bool trans_b, float alpha, float beta,
                        std::int64_t row_begin, std::int64_t row_end);
void gemmPackedRowsAvx512(const float *a, const float *b, float *c,
                          std::int64_t m, std::int64_t n, std::int64_t k,
                          bool trans_a, bool trans_b, float alpha,
                          float beta, std::int64_t row_begin,
                          std::int64_t row_end);

/** The calling thread's packing buffers, kGemmMC x kGemmKC floats for
 * A and kGemmNC x kGemmKC for B (every variant's panels fit). Sized
 * once per thread, so steady-state calls allocate nothing. Defined in
 * the baseline TU. */
float *gemmPackBufferA();
float *gemmPackBufferB();

namespace {

constexpr std::int64_t
minExtent(std::int64_t x, std::int64_t y)
{
    return x < y ? x : y;
}

/**
 * Rank-kc update of one MR x NR register tile from packed panels:
 * acc[r][j] = sum_p ap[p*MR + r] * bp[p*NR + j], products added in
 * ascending p. Every variant's tile row is two vectors of the
 * target's native width (NR / 2 floats: SSE, AVX2 or AVX-512), written
 * with GCC/Clang vector extensions so the MR x 2 accumulators stay in
 * registers and the multiply-add fuses where the ISA has FMA.
 */
template <std::int64_t MR, std::int64_t NR>
inline void
microkernelAccumulate(const float *ap, const float *bp, std::int64_t kc,
                      float *acc)
{
    typedef float Vec __attribute__((vector_size(NR / 2 * sizeof(float))));
    static_assert(sizeof(Vec) * 2 == NR * sizeof(float), "NR must be even");
    Vec lo[MR] = {}, hi[MR] = {};
    for (std::int64_t p = 0; p < kc; ++p) {
        Vec b0 = {}, b1 = {};
        __builtin_memcpy(&b0, bp + p * NR, sizeof(Vec));
        __builtin_memcpy(&b1, bp + p * NR + NR / 2, sizeof(Vec));
        for (std::int64_t r = 0; r < MR; ++r) {
            const float av = ap[p * MR + r];
            lo[r] += av * b0;
            hi[r] += av * b1;
        }
    }
    for (std::int64_t r = 0; r < MR; ++r) {
        __builtin_memcpy(acc + r * NR, &lo[r], sizeof(Vec));
        __builtin_memcpy(acc + r * NR + NR / 2, &hi[r], sizeof(Vec));
    }
}

/**
 * Fold one full tile's rank-kc accumulation into C (leading dimension
 * ldc). The first KC block applies alpha/beta (beta == 0 overwrites,
 * matching the reference kernel's NaN-safe semantics); later blocks
 * accumulate alpha * acc on top.
 */
template <std::int64_t MR, std::int64_t NR>
inline void
tileUpdate(const float *acc, float *c, std::int64_t ldc, float alpha,
           float beta, bool first_block)
{
    for (std::int64_t r = 0; r < MR; ++r) {
        float *crow = c + r * ldc;
        const float *accrow = acc + r * NR;
        if (!first_block) {
            for (std::int64_t j = 0; j < NR; ++j)
                crow[j] += alpha * accrow[j];
        } else if (beta == 0.0f) {
            for (std::int64_t j = 0; j < NR; ++j)
                crow[j] = alpha * accrow[j];
        } else {
            for (std::int64_t j = 0; j < NR; ++j)
                crow[j] = alpha * accrow[j] + beta * crow[j];
        }
    }
}

/**
 * Store one tile into C[0..mr, 0..nr]. A ragged tile is staged through
 * a local MR x NR block so that it runs the same tileUpdate
 * expressions as a full one: an FMA build then contracts every
 * element alike wherever its row or column lands in the tile grid,
 * which keeps results invariant to row offsets (batching, padding,
 * thread partition). Staging copies are exact.
 */
template <std::int64_t MR, std::int64_t NR>
inline void
microkernelStore(const float *acc, float *c, std::int64_t ldc,
                 std::int64_t mr, std::int64_t nr, float alpha, float beta,
                 bool first_block)
{
    if (mr == MR && nr == NR) {
        tileUpdate<MR, NR>(acc, c, ldc, alpha, beta, first_block);
        return;
    }
    alignas(64) float tile[MR * NR] = {};
    for (std::int64_t r = 0; r < mr; ++r)
        for (std::int64_t j = 0; j < nr; ++j)
            tile[r * NR + j] = c[r * ldc + j];
    tileUpdate<MR, NR>(acc, tile, NR, alpha, beta, first_block);
    for (std::int64_t r = 0; r < mr; ++r)
        for (std::int64_t j = 0; j < nr; ++j)
            c[r * ldc + j] = tile[r * NR + j];
}

/** The packed engine over rows [row_begin, row_end); see
 * gemmPackedRows for the contract. */
template <std::int64_t MR, std::int64_t NR>
void
packedRows(const float *a, const float *b, float *c, std::int64_t m,
           std::int64_t n, std::int64_t k, bool trans_a, bool trans_b,
           float alpha, float beta, std::int64_t row_begin,
           std::int64_t row_end)
{
    static_assert(kGemmMC % MR == 0, "MC must be a multiple of MR");
    static_assert(kGemmNC % NR == 0, "NC must be a multiple of NR");

    // Degenerate k == 0: no product terms, but beta must still apply.
    if (k == 0) {
        for (std::int64_t i = row_begin * n; i < row_end * n; ++i)
            c[i] = beta == 0.0f ? 0.0f : c[i] * beta;
        return;
    }

    // Strides describing op(A)(i, p) and op(B)(p, j) over the
    // row-major storage; packing absorbs them into contiguous panels.
    const std::int64_t a_rs = trans_a ? 1 : k;
    const std::int64_t a_cs = trans_a ? m : 1;
    const std::int64_t b_rs = trans_b ? 1 : n;
    const std::int64_t b_cs = trans_b ? k : 1;
    float *const a_packed = gemmPackBufferA();
    float *const b_packed = gemmPackBufferB();

    for (std::int64_t jc = 0; jc < n; jc += kGemmNC) {
        const std::int64_t nc = minExtent(kGemmNC, n - jc);
        for (std::int64_t pc = 0; pc < k; pc += kGemmKC) {
            const std::int64_t kc = minExtent(kGemmKC, k - pc);
            const bool first_block = pc == 0;
            packB(b + pc * b_rs + jc * b_cs, b_rs, b_cs, kc, nc, NR,
                  b_packed);
            for (std::int64_t ic = row_begin; ic < row_end; ic += kGemmMC) {
                const std::int64_t mc = minExtent(kGemmMC, row_end - ic);
                packA(a + ic * a_rs + pc * a_cs, a_rs, a_cs, mc, kc, MR,
                      a_packed);
                for (std::int64_t ir = 0; ir < mc; ir += MR) {
                    const std::int64_t mr = minExtent(MR, mc - ir);
                    const float *ap = a_packed + (ir / MR) * MR * kc;
                    float *crow = c + (ic + ir) * n + jc;
                    for (std::int64_t jr = 0; jr < nc; jr += NR) {
                        const std::int64_t nr = minExtent(NR, nc - jr);
                        const float *bp = b_packed + (jr / NR) * NR * kc;
                        alignas(64) float acc[MR * NR] = {};
                        microkernelAccumulate<MR, NR>(ap, bp, kc, acc);
                        microkernelStore<MR, NR>(acc, crow + jr, n, mr, nr,
                                                 alpha, beta, first_block);
                    }
                }
            }
        }
    }
}

} // namespace
} // namespace bertprof

#endif // BERTPROF_OPS_GEMM_MICROKERNEL_IMPL_H

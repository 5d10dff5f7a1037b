/**
 * @file
 * Packed, register-blocked GEMM engine for the CPU substrate — the
 * BLIS decomposition of C = alpha * op(A) op(B) + beta * C:
 *
 *   jc-loop over N in NC panels        (B panel -> L3)
 *     pc-loop over K in KC blocks      (packed B block -> L2/L3)
 *       pack op(B)[pc, jc] into NR-wide micro-panels
 *       ic-loop over M in MC blocks    (packed A block -> L2)
 *         pack op(A)[ic, pc] into MR-tall micro-panels
 *         ir/jr-loops over MR x NR register tiles -> microkernel
 *
 * The microkernel accumulates an MR x NR tile in vector registers
 * with unit-stride loads from both packed panels. Packing absorbs
 * all four transpose combinations, so the transposed-operand GEMMs
 * (attention K^T, every backward weight gradient) run the same
 * contiguous hot loop as the non-transposed ones.
 *
 * Variants: the engine is one template on the register tile, built
 * once per target ISA — baseline 4x8, AVX2+FMA 6x16, AVX-512 8x32 —
 * each in its own TU with its own compile flags. gemmPackedRows()
 * picks the widest variant the CPU and OS support when it is first
 * called and keeps that choice for the life of the process.
 *
 * Determinism: each output element's accumulation order is a pure
 * function of (n, k) — KC blocks in ascending pc order, products in
 * ascending p order within a block — and never of the row partition
 * executing it, and every element runs the same arithmetic whether
 * it lands in a full or a ragged tile. Row-sliced parallel execution
 * is therefore bitwise identical to one serial call for every thread
 * count. Bits may differ between variants (FMA contraction) and from
 * the reference kernel; the contract is per-build, per-variant
 * invariance, as with the rest of the runtime.
 */

#ifndef BERTPROF_OPS_GEMM_MICROKERNEL_H
#define BERTPROF_OPS_GEMM_MICROKERNEL_H

#include <cstdint>
#include <span>

namespace bertprof {

/** K extent of a packed block: an MR x KC A-panel plus an NR x KC
 * B-panel stay L1-resident. Fixed across variants — KC is the one
 * blocking parameter that shapes accumulation order. */
inline constexpr std::int64_t kGemmKC = 256;

/** M extent of a packed A block (L2-resident; a multiple of every
 * variant's MR, so edge handling is variant-independent). */
inline constexpr std::int64_t kGemmMC = 96;

/** N extent of a packed B block (a multiple of every variant's NR). */
inline constexpr std::int64_t kGemmNC = 1024;

/**
 * Packed GEMM restricted to output rows [row_begin, row_end) of a
 * row-major MxN C: C = alpha * op(A) op(B) + beta * C. op(A) is MxK
 * (A stored KxM when trans_a), op(B) is KxN (B stored NxK when
 * trans_b). Uses thread-local packing buffers — safe to call
 * concurrently on disjoint row ranges, e.g. from parallelFor with a
 * kGemmMC grain. Runs the variant selectedGemmVariant() names.
 */
void gemmPackedRows(const float *a, const float *b, float *c, std::int64_t m,
                    std::int64_t n, std::int64_t k, bool trans_a,
                    bool trans_b, float alpha, float beta,
                    std::int64_t row_begin, std::int64_t row_end);

/** Signature shared by gemmPackedRows and every variant entry point. */
using GemmRowsFn = void (*)(const float *, const float *, float *,
                            std::int64_t, std::int64_t, std::int64_t, bool,
                            bool, float, float, std::int64_t, std::int64_t);

/** One compiled instance of the packed engine. */
struct GemmVariant {
    const char *name;     ///< "baseline", "avx2" or "avx512"
    std::int64_t mr, nr;  ///< register tile
    GemmRowsFn rows;      ///< entry point, same contract as gemmPackedRows
    bool (*hostSupports)(); ///< CPU has the ISA and the OS saves its state
};

/** Every variant compiled into this build, narrowest first. The
 * baseline is always present and always supported. */
std::span<const GemmVariant> gemmVariants();

/** The widest variant this host supports; resolved once per process.
 * gemm(), batchedGemm() and the fused attention all run it. */
const GemmVariant &selectedGemmVariant();

/** Register tile of the selected variant (selectedGemmVariant().mr
 * and .nr), set during static initialization. */
extern const std::int64_t kGemmMR;
extern const std::int64_t kGemmNR;

} // namespace bertprof

#endif // BERTPROF_OPS_GEMM_MICROKERNEL_H

/**
 * @file
 * The one per-process choice of instruction-set variant for the
 * kernels that are compiled more than once: the packed GEMM engine
 * (ops/gemm_microkernel.h), the float GeLU (ops/gelu_kernels.h) and
 * the float softmax cross-entropy rows (ops/cross_entropy_kernels.h).
 *
 * Each such kernel is built once per variant, each in its own TU with
 * that variant's compile flags (src/ops/CMakeLists.txt). selectedIsa()
 * picks the widest variant the CPU and OS support the first time it
 * is asked and keeps it for the life of the process. Every
 * multi-variant kernel indexes its table with that one answer, so the
 * GEMM and the element-wise kernels always run the same variant, and
 * nothing is ever chosen by shape: batched vs solo and resumed vs
 * uninterrupted runs stay bitwise comparable.
 */

#ifndef BERTPROF_OPS_ISA_DISPATCH_H
#define BERTPROF_OPS_ISA_DISPATCH_H

namespace bertprof {

/** Instruction-set variants, narrowest first. */
enum class Isa : int {
    Baseline = 0, ///< the build's default ISA (SSE2 on x86-64)
    Avx2 = 1,     ///< AVX2 + FMA
    Avx512 = 2,   ///< AVX-512F + AVX2 + FMA
};

/** Number of Isa values. */
inline constexpr int kIsaCount = 3;

/** "baseline", "avx2" or "avx512". */
const char *isaName(Isa isa);

/** True when this build compiled the variant (the wide ones only on
 * x86), the CPU has its instructions and the OS saves their register
 * state. Baseline is always true. */
bool isaSupported(Isa isa);

/** The widest supported variant; resolved once per process. */
Isa selectedIsa();

} // namespace bertprof

#endif // BERTPROF_OPS_ISA_DISPATCH_H

// AVX-512 variant of the packed GEMM engine (8x32 tile). Built with
// -mavx512f -mavx2 -mfma (src/ops/CMakeLists.txt) and run only on
// CPUs that selectedIsa() found to support it; it exports
// nothing but its entry point (see ops/gemm_microkernel_impl.h).

#include "ops/gemm_microkernel_impl.h"

namespace bertprof {

void
gemmPackedRowsAvx512(const float *a, const float *b, float *c,
                     std::int64_t m, std::int64_t n, std::int64_t k,
                     bool trans_a, bool trans_b, float alpha, float beta,
                     std::int64_t row_begin, std::int64_t row_end)
{
    packedRows<8, 32>(a, b, c, m, n, k, trans_a, trans_b, alpha, beta,
                      row_begin, row_end);
}

} // namespace bertprof

#include "ops/gemm.h"

#include <algorithm>

#include "ops/gemm_microkernel.h"
#include "runtime/config.h"
#include "runtime/parallel_for.h"
#include "tensor/contracts.h"
#include "util/logging.h"

namespace bertprof {

namespace {

/** Chunk granularity over the M dimension for the reference kernel:
 * rows are heavyweight (n*k MACs each), so chunk finely and let the
 * chunk cap bound overhead. The packed engine chunks at its MC block
 * instead, so each chunk packs each A panel exactly once. */
constexpr std::int64_t kGemmRowGrain = 4;

/**
 * Core MxNxK kernel on raw pointers with row-major storage and
 * logical transposes handled via strides, restricted to output rows
 * [row_begin, row_end). Blocked on K and N to keep the working set
 * cache resident. Each output row's accumulation order is independent
 * of the row range, so row-partitioned parallel execution is bitwise
 * identical to one serial call over [0, m).
 */
void
gemmKernelRows(const float *a, const float *b, float *c, std::int64_t m,
               std::int64_t n, std::int64_t k, bool trans_a, bool trans_b,
               float alpha, float beta, std::int64_t row_begin,
               std::int64_t row_end)
{
    // Element (i, p) of op(A): A is MxK or (transposed) KxM.
    const std::int64_t a_rs = trans_a ? 1 : k; // row stride
    const std::int64_t a_cs = trans_a ? m : 1; // col stride
    const std::int64_t b_rs = trans_b ? 1 : n;
    const std::int64_t b_cs = trans_b ? k : 1;

    for (std::int64_t i = row_begin * n; i < row_end * n; ++i)
        c[i] = beta == 0.0f ? 0.0f : c[i] * beta;

    constexpr std::int64_t kBlockK = 64;
    constexpr std::int64_t kBlockN = 128;
    for (std::int64_t p0 = 0; p0 < k; p0 += kBlockK) {
        const std::int64_t p1 = std::min(p0 + kBlockK, k);
        for (std::int64_t j0 = 0; j0 < n; j0 += kBlockN) {
            const std::int64_t j1 = std::min(j0 + kBlockN, n);
            for (std::int64_t i = row_begin; i < row_end; ++i) {
                float *crow = c + i * n;
                for (std::int64_t p = p0; p < p1; ++p) {
                    const float av = alpha * a[i * a_rs + p * a_cs];
                    const float *brow = b + p * b_rs;
                    for (std::int64_t j = j0; j < j1; ++j)
                        crow[j] += av * brow[j * b_cs];
                }
            }
        }
    }
}

} // namespace

KernelStats
gemm(const Tensor &a, const Tensor &b, Tensor &c, bool trans_a, bool trans_b,
     float alpha, float beta)
{
    BP_CHECK_RANK(a, 2);
    BP_CHECK_RANK(b, 2);
    BP_CHECK_RANK(c, 2);
    const std::int64_t m = trans_a ? a.shape().dim(1) : a.shape().dim(0);
    const std::int64_t k = trans_a ? a.shape().dim(0) : a.shape().dim(1);
    const std::int64_t kb = trans_b ? b.shape().dim(1) : b.shape().dim(0);
    const std::int64_t n = trans_b ? b.shape().dim(0) : b.shape().dim(1);
    BP_REQUIRE(k == kb);
    BP_REQUIRE(c.shape().dim(0) == m && c.shape().dim(1) == n);
    // The packed engine reads whole operand panels while writing C,
    // so any storage overlap silently corrupts results.
    BP_CHECK_NO_ALIAS(c, a);
    BP_CHECK_NO_ALIAS(c, b);

    if (configuredGemmImpl() == GemmImpl::Packed) {
        parallelFor(0, m, kGemmMC,
                    [&](std::int64_t row_begin, std::int64_t row_end) {
                        gemmPackedRows(a.data(), b.data(), c.data(), m, n, k,
                                       trans_a, trans_b, alpha, beta,
                                       row_begin, row_end);
                    });
    } else {
        parallelFor(0, m, kGemmRowGrain,
                    [&](std::int64_t row_begin, std::int64_t row_end) {
                        gemmKernelRows(a.data(), b.data(), c.data(), m, n, k,
                                       trans_a, trans_b, alpha, beta,
                                       row_begin, row_end);
                    });
    }
    return gemmStats(m, n, k, 1, dtypeBytes(a.dtype()));
}

KernelStats
batchedGemm(const Tensor &a, const Tensor &b, Tensor &c, bool trans_a,
            bool trans_b, float alpha, float beta)
{
    BP_CHECK_RANK(a, 3);
    BP_CHECK_RANK(b, 3);
    BP_CHECK_RANK(c, 3);
    const std::int64_t batch = a.shape().dim(0);
    BP_REQUIRE(b.shape().dim(0) == batch && c.shape().dim(0) == batch);

    const std::int64_t m = trans_a ? a.shape().dim(2) : a.shape().dim(1);
    const std::int64_t k = trans_a ? a.shape().dim(1) : a.shape().dim(2);
    const std::int64_t kb = trans_b ? b.shape().dim(2) : b.shape().dim(1);
    const std::int64_t n = trans_b ? b.shape().dim(1) : b.shape().dim(2);
    BP_REQUIRE(k == kb);
    BP_REQUIRE(c.shape().dim(1) == m && c.shape().dim(2) == n);
    BP_CHECK_NO_ALIAS(c, a);
    BP_CHECK_NO_ALIAS(c, b);

    const std::int64_t a_step = a.shape().dim(1) * a.shape().dim(2);
    const std::int64_t b_step = b.shape().dim(1) * b.shape().dim(2);
    const std::int64_t c_step = m * n;
    // The B*h attention GEMMs are embarrassingly parallel over the
    // batch dimension; chunk over rows too so a few large batches
    // still spread across every lane.
    if (configuredGemmImpl() == GemmImpl::Packed) {
        parallelFor2d(batch, m, 1, kGemmMC,
                      [&](std::int64_t g_begin, std::int64_t g_end,
                          std::int64_t row_begin, std::int64_t row_end) {
                          for (std::int64_t g = g_begin; g < g_end; ++g) {
                              gemmPackedRows(a.data() + g * a_step,
                                             b.data() + g * b_step,
                                             c.data() + g * c_step, m, n, k,
                                             trans_a, trans_b, alpha, beta,
                                             row_begin, row_end);
                          }
                      });
    } else {
        parallelFor2d(batch, m, 1, kGemmRowGrain,
                      [&](std::int64_t g_begin, std::int64_t g_end,
                          std::int64_t row_begin, std::int64_t row_end) {
                          for (std::int64_t g = g_begin; g < g_end; ++g) {
                              gemmKernelRows(a.data() + g * a_step,
                                             b.data() + g * b_step,
                                             c.data() + g * c_step, m, n, k,
                                             trans_a, trans_b, alpha, beta,
                                             row_begin, row_end);
                          }
                      });
    }
    return gemmStats(m, n, k, batch, dtypeBytes(a.dtype()));
}

} // namespace bertprof

#include "ops/layernorm.h"

#include <cmath>

#include "ops/column_sum.h"
#include "runtime/parallel_for.h"
#include "tensor/contracts.h"
#include "util/logging.h"

namespace bertprof {

void
layerNormRow(const float *x, const float *gamma, const float *beta,
             std::int64_t cols, float eps, float *y, float *mean,
             float *rstd)
{
    double mu = 0.0;
    for (std::int64_t c = 0; c < cols; ++c)
        mu += x[c];
    mu /= static_cast<double>(cols);
    double var = 0.0;
    for (std::int64_t c = 0; c < cols; ++c) {
        const double d = x[c] - mu;
        var += d * d;
    }
    var /= static_cast<double>(cols);
    const double rs = 1.0 / std::sqrt(var + eps);
    *mean = static_cast<float>(mu);
    *rstd = static_cast<float>(rs);
    for (std::int64_t c = 0; c < cols; ++c)
        y[c] = static_cast<float>((x[c] - mu) * rs) * gamma[c] + beta[c];
}

KernelStats
layerNormForward(const Tensor &in, const Tensor &gamma, const Tensor &beta,
                 Tensor &out, Tensor &mean, Tensor &rstd, float eps)
{
    BP_CHECK_SAME_SHAPE(in, out);
    BP_CHECK_RANK(gamma, 1);
    BP_CHECK_SAME_SHAPE(beta, gamma);
    BP_CHECK_NO_PARTIAL_ALIAS(out, in);
    BP_CHECK_NO_ALIAS(out, gamma);
    BP_CHECK_NO_ALIAS(out, beta);
    BP_CHECK_NO_ALIAS(mean, in);
    BP_CHECK_NO_ALIAS(mean, out);
    BP_CHECK_NO_ALIAS(rstd, in);
    BP_CHECK_NO_ALIAS(rstd, out);
    const std::int64_t cols = gamma.shape().dim(0);
    BP_REQUIRE(in.shape().dim(-1) == cols);
    // No elements (zero rows or zero-width rows): nothing to normalize
    // and no statistics to write.
    if (in.numel() == 0)
        return KernelStats{};
    const std::int64_t rows = contracts::rowCount(in, cols);
    BP_REQUIRE(mean.numel() == rows && rstd.numel() == rows);

    // Rows are fully independent: statistics and normalization for a
    // row touch only that row, so row-partitioned execution is
    // bitwise identical to the serial loop.
    parallelFor(0, rows, rowGrain(cols), [&](std::int64_t r_lo,
                                             std::int64_t r_hi) {
        for (std::int64_t r = r_lo; r < r_hi; ++r)
            layerNormRow(in.data() + r * cols, gamma.data(), beta.data(),
                         cols, eps, out.data() + r * cols,
                         mean.data() + r, rstd.data() + r);
    });
    KernelStats s = elementwiseStats(in.numel(), 1, 1, 6,
                                     dtypeBytes(in.dtype()));
    s.bytesRead += gamma.storageBytes() + beta.storageBytes();
    s.bytesWritten += mean.storageBytes() + rstd.storageBytes();
    return s;
}

KernelStats
layerNormBackward(const Tensor &in, const Tensor &gamma, const Tensor &mean,
                  const Tensor &rstd, const Tensor &dout, Tensor &din,
                  Tensor &dgamma, Tensor &dbeta)
{
    BP_CHECK_RANK(gamma, 1);
    const std::int64_t cols = gamma.shape().dim(0);
    BP_CHECK_SAME_SHAPE(in, dout);
    BP_CHECK_SAME_SHAPE(in, din);
    BP_CHECK_SAME_SHAPE(dgamma, gamma);
    BP_CHECK_SAME_SHAPE(dbeta, gamma);
    // Pass 2 re-reads in/dout after pass 1 wrote din, so even exact
    // in-place aliasing would corrupt dgamma/dbeta: require disjoint.
    BP_CHECK_NO_ALIAS(din, dout);
    BP_CHECK_NO_ALIAS(din, in);
    BP_CHECK_NO_ALIAS(dgamma, in);
    BP_CHECK_NO_ALIAS(dgamma, dout);
    BP_CHECK_NO_ALIAS(dbeta, in);
    BP_CHECK_NO_ALIAS(dbeta, dout);

    dgamma.fill(0.0f);
    dbeta.fill(0.0f);
    // No elements: din is empty and the parameter grads sum no rows.
    if (in.numel() == 0)
        return KernelStats{};
    const std::int64_t rows = contracts::rowCount(in, cols);
    BP_REQUIRE(mean.numel() == rows && rstd.numel() == rows);
    // Pass 1 — din, parallel over rows. Each row's reductions
    // (sum_gdy, sum_gdy_xhat) stay inside the row, so partitioning
    // rows does not change any accumulation order.
    parallelFor(0, rows, rowGrain(cols), [&](std::int64_t r_lo,
                                             std::int64_t r_hi) {
        for (std::int64_t r = r_lo; r < r_hi; ++r) {
            const float *x = in.data() + r * cols;
            const float *dy = dout.data() + r * cols;
            float *dx = din.data() + r * cols;
            const double mu = mean.data()[r];
            const double rs = rstd.data()[r];

            // xhat = (x - mu) * rs; din follows the standard LN
            // backward:
            // dx = rs/C * (C*g*dy - sum(g*dy) - xhat * sum(g*dy*xhat))
            double sum_gdy = 0.0;
            double sum_gdy_xhat = 0.0;
            for (std::int64_t c = 0; c < cols; ++c) {
                const double xhat = (x[c] - mu) * rs;
                const double gdy =
                    static_cast<double>(gamma.data()[c]) * dy[c];
                sum_gdy += gdy;
                sum_gdy_xhat += gdy * xhat;
            }
            const double inv_c = 1.0 / static_cast<double>(cols);
            for (std::int64_t c = 0; c < cols; ++c) {
                const double xhat = (x[c] - mu) * rs;
                const double gdy =
                    static_cast<double>(gamma.data()[c]) * dy[c];
                dx[c] = static_cast<float>(
                    rs * (gdy - inv_c * (sum_gdy + xhat * sum_gdy_xhat)));
            }
        }
    });
    // Pass 2 — dgamma/dbeta as row-order column sums (ops/column_sum.h):
    // bitwise identical to the serial column-strided loop for any
    // thread count.
    const float *x = in.data();
    const float *dy = dout.data();
    const float *mean_p = mean.data();
    const float *rstd_p = rstd.data();
    columnSums<2>(rows, cols, {dgamma.data(), dbeta.data()},
                  [=](std::int64_t r, std::int64_t c0, std::int64_t n,
                      float (*acc)[kColumnBlock]) {
                      const double mu = mean_p[r];
                      const double rs = rstd_p[r];
                      const float *xr = x + r * cols + c0;
                      const float *dyr = dy + r * cols + c0;
                      for (std::int64_t j = 0; j < n; ++j) {
                          const double xhat = (xr[j] - mu) * rs;
                          acc[0][j] += static_cast<float>(dyr[j] * xhat);
                          acc[1][j] += dyr[j];
                      }
                  });
    KernelStats s = elementwiseStats(in.numel(), 2, 1, 9,
                                     dtypeBytes(in.dtype()));
    s.bytesRead += gamma.storageBytes() + mean.storageBytes() +
                   rstd.storageBytes();
    s.bytesWritten += dgamma.storageBytes() + dbeta.storageBytes();
    return s;
}

} // namespace bertprof

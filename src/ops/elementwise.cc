#include "ops/elementwise.h"

#include "ops/column_sum.h"
#include "runtime/parallel_for.h"
#include "tensor/contracts.h"
#include "util/logging.h"

namespace bertprof {

KernelStats
addForward(const Tensor &a, const Tensor &b, Tensor &out)
{
    BP_CHECK_SAME_SHAPE(a, b);
    BP_CHECK_SAME_SHAPE(a, out);
    BP_CHECK_NO_PARTIAL_ALIAS(out, a);
    BP_CHECK_NO_PARTIAL_ALIAS(out, b);
    const std::int64_t n = a.numel();
    parallelFor(0, n, kElementwiseGrain,
                [&](std::int64_t lo, std::int64_t hi) {
                    for (std::int64_t i = lo; i < hi; ++i)
                        out.data()[i] = a.data()[i] + b.data()[i];
                });
    return elementwiseStats(n, 2, 1, 1, dtypeBytes(a.dtype()));
}

KernelStats
mulForward(const Tensor &a, const Tensor &b, Tensor &out)
{
    BP_CHECK_SAME_SHAPE(a, b);
    BP_CHECK_SAME_SHAPE(a, out);
    BP_CHECK_NO_PARTIAL_ALIAS(out, a);
    BP_CHECK_NO_PARTIAL_ALIAS(out, b);
    const std::int64_t n = a.numel();
    parallelFor(0, n, kElementwiseGrain,
                [&](std::int64_t lo, std::int64_t hi) {
                    for (std::int64_t i = lo; i < hi; ++i)
                        out.data()[i] = a.data()[i] * b.data()[i];
                });
    return elementwiseStats(n, 2, 1, 1, dtypeBytes(a.dtype()));
}

KernelStats
scaleForward(const Tensor &a, float scalar, Tensor &out)
{
    BP_CHECK_SAME_SHAPE(a, out);
    BP_CHECK_NO_PARTIAL_ALIAS(out, a);
    const std::int64_t n = a.numel();
    parallelFor(0, n, kElementwiseGrain,
                [&](std::int64_t lo, std::int64_t hi) {
                    for (std::int64_t i = lo; i < hi; ++i)
                        out.data()[i] = a.data()[i] * scalar;
                });
    return elementwiseStats(n, 1, 1, 1, dtypeBytes(a.dtype()));
}

KernelStats
accumulate(Tensor &a, const Tensor &b)
{
    BP_CHECK_SAME_SHAPE(a, b);
    BP_CHECK_NO_PARTIAL_ALIAS(a, b);
    const std::int64_t n = a.numel();
    parallelFor(0, n, kElementwiseGrain,
                [&](std::int64_t lo, std::int64_t hi) {
                    for (std::int64_t i = lo; i < hi; ++i)
                        a.data()[i] += b.data()[i];
                });
    return elementwiseStats(n, 2, 1, 1, dtypeBytes(a.dtype()));
}

KernelStats
biasForward(const Tensor &in, const Tensor &bias, Tensor &out)
{
    BP_CHECK_SAME_SHAPE(in, out);
    BP_CHECK_RANK(bias, 1);
    BP_CHECK_NO_PARTIAL_ALIAS(out, in);
    BP_CHECK_NO_ALIAS(out, bias);
    const std::int64_t cols = bias.shape().dim(0);
    const std::int64_t rows = contracts::rowCount(in, cols);
    parallelFor(0, rows, rowGrain(cols),
                [&](std::int64_t r_lo, std::int64_t r_hi) {
                    for (std::int64_t r = r_lo; r < r_hi; ++r)
                        for (std::int64_t c = 0; c < cols; ++c)
                            out.data()[r * cols + c] =
                                in.data()[r * cols + c] + bias.data()[c];
                });
    KernelStats s = elementwiseStats(in.numel(), 1, 1, 1,
                                     dtypeBytes(in.dtype()));
    s.bytesRead += bias.storageBytes();
    return s;
}

KernelStats
biasBackward(const Tensor &dout, Tensor &dbias)
{
    BP_CHECK_RANK(dbias, 1);
    BP_CHECK_NO_ALIAS(dbias, dout);
    const std::int64_t cols = dbias.shape().dim(0);
    const std::int64_t rows = contracts::rowCount(dout, cols);
    const float *d = dout.data();
    columnSums<1>(rows, cols, {dbias.data()},
                  [d, cols](std::int64_t r, std::int64_t c0, std::int64_t n,
                            float (*acc)[kColumnBlock]) {
                      const float *row = d + r * cols + c0;
                      for (std::int64_t j = 0; j < n; ++j)
                          acc[0][j] += row[j];
                  });
    KernelStats s = elementwiseStats(dout.numel(), 1, 0, 1,
                                     dtypeBytes(dout.dtype()));
    s.bytesWritten += dbias.storageBytes();
    return s;
}

KernelStats
batchMaskAddForward(const Tensor &a, const Tensor &mask,
                    std::int64_t heads, Tensor &out)
{
    BP_CHECK_SAME_SHAPE(a, out);
    BP_CHECK_RANK(a, 3);
    BP_CHECK_RANK(mask, 3);
    BP_CHECK_NO_PARTIAL_ALIAS(out, a);
    BP_CHECK_NO_ALIAS(out, mask);
    BP_REQUIRE(heads > 0);
    const std::int64_t groups = a.shape().dim(0);
    BP_REQUIRE(groups % heads == 0);
    BP_REQUIRE(mask.shape().dim(0) == groups / heads);
    BP_REQUIRE(mask.shape().dim(1) == a.shape().dim(1));
    BP_REQUIRE(mask.shape().dim(2) == a.shape().dim(2));
    const std::int64_t per_group = a.shape().dim(1) * a.shape().dim(2);

    parallelFor(0, groups, rowGrain(per_group),
                [&](std::int64_t g_lo, std::int64_t g_hi) {
                    for (std::int64_t g = g_lo; g < g_hi; ++g) {
                        const float *m =
                            mask.data() + (g / heads) * per_group;
                        const float *src = a.data() + g * per_group;
                        float *dst = out.data() + g * per_group;
                        for (std::int64_t i = 0; i < per_group; ++i)
                            dst[i] = src[i] + m[i];
                    }
                });
    KernelStats s = elementwiseStats(a.numel(), 1, 1, 1,
                                     dtypeBytes(a.dtype()));
    s.bytesRead += mask.storageBytes();
    return s;
}

KernelStats
maskAddForward(const Tensor &a, const Tensor &mask, Tensor &out)
{
    BP_CHECK_SAME_SHAPE(a, out);
    BP_CHECK_NO_PARTIAL_ALIAS(out, a);
    BP_CHECK_NO_ALIAS(out, mask);
    const std::int64_t mask_n = mask.numel();
    BP_REQUIRE(mask_n > 0 && a.numel() % mask_n == 0);
    const std::int64_t groups = a.numel() / mask_n;
    parallelFor(0, groups, rowGrain(mask_n),
                [&](std::int64_t g_lo, std::int64_t g_hi) {
                    for (std::int64_t g = g_lo; g < g_hi; ++g)
                        for (std::int64_t i = 0; i < mask_n; ++i)
                            out.data()[g * mask_n + i] =
                                a.data()[g * mask_n + i] + mask.data()[i];
                });
    KernelStats s = elementwiseStats(a.numel(), 1, 1, 1,
                                     dtypeBytes(a.dtype()));
    s.bytesRead += mask.storageBytes();
    return s;
}

} // namespace bertprof

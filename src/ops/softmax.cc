#include "ops/softmax.h"

#include <algorithm>
#include <cmath>

#include "runtime/parallel_for.h"
#include "tensor/contracts.h"
#include "util/logging.h"

namespace bertprof {

void
softmaxRow(const float *x, float *y, std::int64_t cols)
{
    float mx = x[0];
    for (std::int64_t c = 1; c < cols; ++c)
        mx = std::max(mx, x[c]);
    double denom = 0.0;
    for (std::int64_t c = 0; c < cols; ++c) {
        y[c] = std::exp(x[c] - mx);
        denom += y[c];
    }
    const float inv = static_cast<float>(1.0 / denom);
    for (std::int64_t c = 0; c < cols; ++c)
        y[c] *= inv;
}

KernelStats
softmaxForward(const Tensor &in, Tensor &out)
{
    BP_CHECK_SAME_SHAPE(in, out);
    BP_CHECK_NO_PARTIAL_ALIAS(out, in);
    BP_REQUIRE(in.shape().rank() >= 1);
    const std::int64_t cols = in.shape().dim(-1);
    const std::int64_t rows = contracts::rowCount(in, cols);

    // Each softmax row (max, exp, sum, scale) is self-contained, so
    // row-partitioned execution is bitwise identical to the serial
    // loop for any thread count.
    parallelFor(0, rows, rowGrain(cols), [&](std::int64_t r_lo,
                                             std::int64_t r_hi) {
        for (std::int64_t r = r_lo; r < r_hi; ++r)
            softmaxRow(in.data() + r * cols, out.data() + r * cols, cols);
    });
    // max + exp + sum + div: ~4 passes of arithmetic per element.
    return elementwiseStats(in.numel(), 1, 1, 4, dtypeBytes(in.dtype()));
}

KernelStats
softmaxBackward(const Tensor &out, const Tensor &dout, Tensor &din)
{
    BP_CHECK_SAME_SHAPE(out, dout);
    BP_CHECK_SAME_SHAPE(out, din);
    BP_CHECK_NO_PARTIAL_ALIAS(din, out);
    BP_CHECK_NO_PARTIAL_ALIAS(din, dout);
    const std::int64_t cols = out.shape().dim(-1);
    const std::int64_t rows = contracts::rowCount(out, cols);

    parallelFor(0, rows, rowGrain(cols), [&](std::int64_t r_lo,
                                             std::int64_t r_hi) {
        for (std::int64_t r = r_lo; r < r_hi; ++r) {
            const float *y = out.data() + r * cols;
            const float *dy = dout.data() + r * cols;
            float *dx = din.data() + r * cols;
            double dot = 0.0;
            for (std::int64_t c = 0; c < cols; ++c)
                dot += static_cast<double>(y[c]) * dy[c];
            for (std::int64_t c = 0; c < cols; ++c)
                dx[c] = y[c] * (dy[c] - static_cast<float>(dot));
        }
    });
    return elementwiseStats(out.numel(), 2, 1, 4, dtypeBytes(out.dtype()));
}

} // namespace bertprof

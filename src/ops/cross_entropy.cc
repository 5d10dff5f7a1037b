#include "ops/cross_entropy.h"

#include <algorithm>
#include <cmath>

#include "runtime/parallel_for.h"
#include "tensor/contracts.h"
#include "util/logging.h"

namespace bertprof {

CrossEntropyResult
softmaxCrossEntropy(const Tensor &logits,
                    const std::vector<std::int64_t> &labels, Tensor &dlogits,
                    float grad_scale, const CrossEntropyKernels &kernels)
{
    BP_CHECK_RANK(logits, 2);
    BP_CHECK_SAME_SHAPE(logits, dlogits);
    BP_CHECK_NO_ALIAS(dlogits, logits);
    const std::int64_t rows = logits.shape().dim(0);
    const std::int64_t cols = logits.shape().dim(1);
    BP_REQUIRE(static_cast<std::int64_t>(labels.size()) == rows);
    // Lane indices are int32 (ops/cross_entropy_kernels.h).
    BP_REQUIRE(cols < (std::int64_t{1} << 30));
    BP_REQUIRE(grad_scale > 0.0f);

    CrossEntropyResult result;
    for (const std::int64_t label : labels) {
        if (label == kIgnoreIndex)
            continue;
        BP_REQUIRE(label >= 0 && label < cols);
        ++result.count;
    }
    if (result.count == 0) {
        dlogits.fill(0.0f);
        return result;
    }

    const double inv_count = 1.0 / static_cast<double>(result.count);
    const float scale = static_cast<float>(grad_scale * inv_count);
    // Per-row loss and argmax hit, merged below in row order.
    std::vector<double> row_loss(static_cast<std::size_t>(rows), 0.0);
    std::vector<unsigned char> row_hit(static_cast<std::size_t>(rows), 0);
    parallelFor(0, rows, rowGrain(cols), [&](std::int64_t r_lo,
                                             std::int64_t r_hi) {
        for (std::int64_t r = r_lo; r < r_hi; ++r) {
            const std::size_t ri = static_cast<std::size_t>(r);
            const std::int64_t label = labels[ri];
            const float *x = logits.data() + r * cols;
            float *dx = dlogits.data() + r * cols;
            if (label == kIgnoreIndex) {
                std::fill(dx, dx + cols, 0.0f);
                continue;
            }
            const SoftmaxRowStats s = kernels.scaledSoftmax(x, cols, scale,
                                                            dx);
            dx[label] -= scale;
            row_loss[ri] = std::log(static_cast<double>(s.sumExp)) -
                           (static_cast<double>(x[label]) - s.max);
            row_hit[ri] = s.argmax == label ? 1 : 0;
        }
    });
    double total = 0.0;
    for (std::int64_t r = 0; r < rows; ++r) {
        const std::size_t ri = static_cast<std::size_t>(r);
        if (labels[ri] == kIgnoreIndex)
            continue;
        total += row_loss[ri];
        result.correct += row_hit[ri];
    }
    result.loss = total * inv_count;
    result.stats = elementwiseStats(result.count * cols, 1, 1, 6,
                                    dtypeBytes(logits.dtype()));
    return result;
}

} // namespace bertprof

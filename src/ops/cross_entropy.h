/**
 * @file
 * Softmax cross-entropy with logits, supporting ignored positions —
 * the loss behind BERT's masked-LM head (only ~15% of positions carry
 * a label) and the next-sentence-prediction head.
 */

#ifndef BERTPROF_OPS_CROSS_ENTROPY_H
#define BERTPROF_OPS_CROSS_ENTROPY_H

#include <cstdint>
#include <vector>

#include "ops/cross_entropy_kernels.h"
#include "ops/kernel_stats.h"
#include "tensor/tensor.h"

namespace bertprof {

/** Marks a position that does not contribute to the loss. */
constexpr std::int64_t kIgnoreIndex = -1;

/** Result of a cross-entropy evaluation. */
struct CrossEntropyResult {
    /** Mean negative log-likelihood over counted positions. */
    double loss = 0.0;
    /** Number of positions that carried a label. */
    std::int64_t count = 0;
    /** Labeled positions whose first maximal logit is the label. */
    std::int64_t correct = 0;
    /** Kernel accounting. */
    KernelStats stats;

    /** correct / count, and 0 when no position carried a label. */
    double
    accuracy() const
    {
        return count > 0 ? static_cast<double>(correct) /
                               static_cast<double>(count)
                         : 0.0;
    }
};

/**
 * Forward + backward in one pass: given logits [T, C] and labels
 * (size T, kIgnoreIndex entries skipped), computes the mean loss, the
 * argmax hit count, and writes
 * dlogits = grad_scale * (softmax - onehot) / count for labeled rows
 * and 0 for ignored rows (grad_scale is the loss scale of
 * mixed-precision training; the loss itself is unscaled).
 *
 * Rows run in parallel, each in one float pass of `kernels`
 * (ops/cross_entropy_kernels.h; tests pass each ISA variant's);
 * per-row losses (in double) are summed in row order, so every output
 * is bitwise identical at every thread count.
 */
CrossEntropyResult softmaxCrossEntropy(
    const Tensor &logits, const std::vector<std::int64_t> &labels,
    Tensor &dlogits, float grad_scale = 1.0f,
    const CrossEntropyKernels &kernels = selectedCrossEntropyKernels());

} // namespace bertprof

#endif // BERTPROF_OPS_CROSS_ENTROPY_H

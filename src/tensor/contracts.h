/**
 * @file
 * Shape / aliasing / finiteness contract macros for op entry points.
 *
 * Every public kernel in src/ops and src/optim states its
 * preconditions with these macros; tools/bplint enforces that
 * mechanically (rule op-entry-contract). Two check tiers:
 *
 *  - BP_CHECK_* build on BP_REQUIRE: always on, O(1), exit(1) with a
 *    message naming the violated contract and the offending shapes.
 *  - BP_DCHECK_* build on BP_ASSERT: debug-only (compile out under
 *    NDEBUG), may be O(n) — e.g. finiteness scans.
 *
 * Aliasing vocabulary: kernels that read input element i only to
 * produce output element i tolerate *exact* aliasing (out.data() ==
 * in.data(), in-place update) but are silently corrupted by *partial*
 * overlap; kernels that gather/scatter or re-read whole panels
 * (GEMM, transpose, embedding) require full disjointness.
 */

#ifndef BERTPROF_TENSOR_CONTRACTS_H
#define BERTPROF_TENSOR_CONTRACTS_H

#include <cmath>

#include "tensor/tensor.h"
#include "util/logging.h"

namespace bertprof {
namespace contracts {

/** True when a and b are the identical buffer (same base, same size). */
inline bool
sameStorage(const Tensor &a, const Tensor &b)
{
    return a.data() == b.data() && a.numel() == b.numel();
}

/** True when the storage ranges of a and b do not overlap at all. */
inline bool
storageDisjoint(const Tensor &a, const Tensor &b)
{
    const float *ab = a.data();
    const float *ae = ab + a.numel();
    const float *bb = b.data();
    const float *be = bb + b.numel();
    return ae <= bb || be <= ab;
}

/** True when a and b are either the same buffer or fully disjoint. */
inline bool
exactAliasOrDisjoint(const Tensor &a, const Tensor &b)
{
    return sameStorage(a, b) || storageDisjoint(a, b);
}

/** True when every element is finite (no NaN / +-inf). O(n). */
inline bool
allFinite(const Tensor &t)
{
    const float *p = t.data();
    const std::int64_t n = t.numel();
    for (std::int64_t i = 0; i < n; ++i)
        if (!std::isfinite(p[i]))
            return false;
    return true;
}

/**
 * Rows of `t` viewed row-major as [rows, cols]. Requires numel to be
 * a multiple of cols; zero-width rows (cols == 0) hold no elements,
 * so they count as no rows rather than dividing by zero.
 */
inline std::int64_t
rowCount(const Tensor &t, std::int64_t cols)
{
    BP_REQUIRE(cols == 0 ? t.numel() == 0 : t.numel() % cols == 0);
    return cols == 0 ? 0 : t.numel() / cols;
}

} // namespace contracts
} // namespace bertprof

/** Two tensors must have identical shapes. */
#define BP_CHECK_SAME_SHAPE(a, b)                                            \
    do {                                                                     \
        if (!((a).shape() == (b).shape())) {                                 \
            BP_FATAL() << "shape contract failed: " #a " "                   \
                       << (a).shape().toString() << " vs " #b " "            \
                       << (b).shape().toString();                            \
        }                                                                    \
    } while (0)

/** A tensor must have exactly the given rank. */
#define BP_CHECK_RANK(t, r)                                                  \
    do {                                                                     \
        if ((t).shape().rank() != (r)) {                                     \
            BP_FATAL() << "rank contract failed: " #t " is "                 \
                       << (t).shape().toString() << ", expected rank "       \
                       << (r);                                               \
        }                                                                    \
    } while (0)

/** Output storage must be fully disjoint from the input's. */
#define BP_CHECK_NO_ALIAS(out, in)                                           \
    do {                                                                     \
        if (!::bertprof::contracts::storageDisjoint((out), (in))) {          \
            BP_FATAL() << "alias contract failed: " #out                     \
                       << " overlaps " #in                                   \
                       << " (this kernel requires disjoint storage)";        \
        }                                                                    \
    } while (0)

/**
 * Output may be the same buffer as the input (in-place) or fully
 * disjoint, but never partially overlapping.
 */
#define BP_CHECK_NO_PARTIAL_ALIAS(out, in)                                   \
    do {                                                                     \
        if (!::bertprof::contracts::exactAliasOrDisjoint((out), (in))) {     \
            BP_FATAL() << "alias contract failed: " #out                     \
                       << " partially overlaps " #in                         \
                       << " (in-place is allowed only as an exact alias)";   \
        }                                                                    \
    } while (0)

/** Debug-only: every element of t is finite. O(n), NDEBUG-free. */
#define BP_DCHECK_FINITE(t)                                                  \
    BP_ASSERT(::bertprof::contracts::allFinite(t))

#endif // BERTPROF_TENSOR_CONTRACTS_H

/**
 * @file
 * Row-order column sums over a row-major [rows, cols] operand: the
 * reduction behind bias backward and LayerNorm's dgamma/dbeta.
 *
 * Columns split into blocks of at most kColumnBlock, parallel over
 * blocks. Inside a block the rows are walked once, in ascending
 * order, each adding its contiguous slice into a block of float
 * accumulators that stays in L1. Every column therefore receives its
 * terms in ascending row order starting from 0.0f — the same float
 * sequence as a serial column-strided loop — so the sums are bitwise
 * equal to that loop at every thread count and block width.
 */

#ifndef BERTPROF_OPS_COLUMN_SUM_H
#define BERTPROF_OPS_COLUMN_SUM_H

#include <algorithm>
#include <array>
#include <cstdint>

#include "runtime/parallel_for.h"

namespace bertprof {

/** Columns one block accumulates (1 KiB of floats per sum). */
inline constexpr std::int64_t kColumnBlock = 256;

/** Columns per parallel chunk at least. */
inline constexpr std::int64_t kColumnGrain = 64;

/**
 * kSums column sums at once: for every row r in ascending order and
 * every column block [c0, c0 + n), add_row(r, c0, n, acc) adds row
 * r's terms for those columns into acc[s][0..n) (acc is
 * float[kSums][kColumnBlock], zeroed per block). The block's sums
 * then land in out[s][c0..c0 + n).
 */
template <std::size_t kSums, typename AddRow>
void
columnSums(std::int64_t rows, std::int64_t cols,
           const std::array<float *, kSums> &out, const AddRow &add_row)
{
    parallelFor(0, cols, kColumnGrain,
                [&](std::int64_t c_lo, std::int64_t c_hi) {
                    for (std::int64_t c0 = c_lo; c0 < c_hi;
                         c0 += kColumnBlock) {
                        const std::int64_t n =
                            std::min(kColumnBlock, c_hi - c0);
                        float acc[kSums][kColumnBlock] = {};
                        for (std::int64_t r = 0; r < rows; ++r)
                            add_row(r, c0, n, acc);
                        for (std::size_t s = 0; s < kSums; ++s)
                            std::copy(acc[s], acc[s] + n, out[s] + c0);
                    }
                });
}

} // namespace bertprof

#endif // BERTPROF_OPS_COLUMN_SUM_H

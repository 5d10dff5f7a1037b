#include "ops/fused.h"

#include <cmath>
#include <vector>

#include "ops/gelu_kernels.h"
#include "ops/gemm.h"
#include "ops/gemm_microkernel.h"
#include "runtime/parallel_for.h"
#include "tensor/contracts.h"
#include "util/logging.h"

namespace bertprof {

namespace {

/**
 * Normalize one row exactly as layerNormForward does: double mean and
 * variance over the float inputs, then the identical output
 * expression. Factoring the row math keeps the fused kernels bitwise
 * against the unfused oracle by construction.
 */
inline void
layerNormRow(const float *x, const float *g, const float *b,
             std::int64_t cols, float eps, float *y, float *mean_out,
             float *rstd_out)
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
    *mean_out = static_cast<float>(mu);
    *rstd_out = static_cast<float>(rs);
    for (std::int64_t c = 0; c < cols; ++c)
        y[c] = static_cast<float>((x[c] - mu) * rs) * g[c] + b[c];
}

/** Per-worker scratch row for kernels that keep an intermediate row
 * (residual sum, attention scores) out of memory. */
float *
scratchRow(std::int64_t cols)
{
    static thread_local std::vector<float> buf;
    if (static_cast<std::int64_t>(buf.size()) < cols)
        buf.resize(static_cast<std::size_t>(cols));
    return buf.data();
}

/** Concatenate three [H, H] weights row-wise into wqkv [3H, H]. */
void
concatQkvWeights(const Tensor &wq, const Tensor &wk, const Tensor &wv,
                 Tensor &wqkv)
{
    const std::int64_t per = wq.numel();
    float *dst = wqkv.data();
    const float *srcs[3] = {wq.data(), wk.data(), wv.data()};
    for (int s = 0; s < 3; ++s)
        for (std::int64_t i = 0; i < per; ++i)
            dst[s * per + i] = srcs[s][i];
}

} // namespace

KernelStats
fusedBiasGeluForward(const Tensor &in, const Tensor &bias, Tensor &out)
{
    BP_CHECK_SAME_SHAPE(in, out);
    BP_CHECK_RANK(bias, 1);
    BP_CHECK_NO_PARTIAL_ALIAS(out, in);
    BP_CHECK_NO_ALIAS(out, bias);
    const std::int64_t cols = bias.shape().dim(0);
    const std::int64_t rows = contracts::rowCount(in, cols);

    // The bias sum is the float biasForward writes; GeLU then runs
    // in place on the cache-hot row through geluForward's own row
    // kernel, whose bits do not depend on an element's position.
    const GeluKernels &gelu = selectedGeluKernels();
    parallelFor(0, rows, rowGrain(cols),
                [&](std::int64_t r_lo, std::int64_t r_hi) {
                    for (std::int64_t r = r_lo; r < r_hi; ++r) {
                        const float *src = in.data() + r * cols;
                        const float *bv = bias.data();
                        float *dst = out.data() + r * cols;
                        for (std::int64_t c = 0; c < cols; ++c)
                            dst[c] = src[c] + bv[c];
                        gelu.forward(dst, dst, cols);
                    }
                });
    // Flops: 1 (bias add) + 5 (GeLU) per element, as the unfused pair
    // reports. Traffic: one read and one write instead of the unfused
    // two reads and two writes (the bias pass's round trip is gone).
    KernelStats s = elementwiseStats(in.numel(), 1, 1, 6,
                                     dtypeBytes(in.dtype()));
    s.bytesRead += bias.storageBytes();
    return s;
}

KernelStats
fusedBiasGeluForwardWithPre(const Tensor &in, const Tensor &bias,
                            Tensor &pre, Tensor &out)
{
    BP_CHECK_SAME_SHAPE(in, out);
    BP_CHECK_SAME_SHAPE(in, pre);
    BP_CHECK_RANK(bias, 1);
    BP_CHECK_NO_PARTIAL_ALIAS(pre, in);
    BP_CHECK_NO_ALIAS(out, pre);
    BP_CHECK_NO_ALIAS(out, in);
    BP_CHECK_NO_ALIAS(out, bias);
    const std::int64_t cols = bias.shape().dim(0);
    const std::int64_t rows = contracts::rowCount(in, cols);

    const GeluKernels &gelu = selectedGeluKernels();
    parallelFor(0, rows, rowGrain(cols),
                [&](std::int64_t r_lo, std::int64_t r_hi) {
                    for (std::int64_t r = r_lo; r < r_hi; ++r) {
                        const float *src = in.data() + r * cols;
                        const float *bv = bias.data();
                        float *prow = pre.data() + r * cols;
                        for (std::int64_t c = 0; c < cols; ++c)
                            prow[c] = src[c] + bv[c];
                        gelu.forward(prow, out.data() + r * cols, cols);
                    }
                });
    KernelStats s = elementwiseStats(in.numel(), 1, 2, 6,
                                     dtypeBytes(in.dtype()));
    s.bytesRead += bias.storageBytes();
    return s;
}

KernelStats
fusedResidualLayerNormForward(const Tensor &a, const Tensor &b,
                              const Tensor &gamma, const Tensor &beta,
                              Tensor &out, Tensor &mean, Tensor &rstd,
                              float eps)
{
    BP_CHECK_SAME_SHAPE(a, b);
    BP_CHECK_SAME_SHAPE(a, out);
    BP_CHECK_RANK(gamma, 1);
    BP_CHECK_SAME_SHAPE(beta, gamma);
    BP_CHECK_NO_ALIAS(out, a);
    BP_CHECK_NO_ALIAS(out, b);
    BP_CHECK_NO_ALIAS(out, gamma);
    BP_CHECK_NO_ALIAS(out, beta);
    const std::int64_t cols = gamma.shape().dim(0);
    BP_REQUIRE(a.shape().dim(-1) == cols);
    const std::int64_t rows = contracts::rowCount(a, cols);
    BP_REQUIRE(mean.numel() == rows && rstd.numel() == rows);

    parallelFor(0, rows, rowGrain(cols),
                [&](std::int64_t r_lo, std::int64_t r_hi) {
                    float *srow = scratchRow(cols);
                    for (std::int64_t r = r_lo; r < r_hi; ++r) {
                        const float *av = a.data() + r * cols;
                        const float *bv = b.data() + r * cols;
                        for (std::int64_t c = 0; c < cols; ++c)
                            srow[c] = av[c] + bv[c];
                        layerNormRow(srow, gamma.data(), beta.data(),
                                     cols, eps, out.data() + r * cols,
                                     mean.data() + r, rstd.data() + r);
                    }
                });
    // Flops: 1 (add) + 6 (LN) per element. Traffic: reads a and b,
    // writes out — the unfused residual's extra write and the LN's
    // re-read of the sum never happen.
    KernelStats s = elementwiseStats(a.numel(), 2, 1, 7,
                                     dtypeBytes(a.dtype()));
    s.bytesRead += gamma.storageBytes() + beta.storageBytes();
    s.bytesWritten += mean.storageBytes() + rstd.storageBytes();
    return s;
}

KernelStats
fusedResidualLayerNormForwardWithSum(const Tensor &a, const Tensor &b,
                                     const Tensor &gamma,
                                     const Tensor &beta, Tensor &sum,
                                     Tensor &out, Tensor &mean,
                                     Tensor &rstd, float eps)
{
    BP_CHECK_SAME_SHAPE(a, b);
    BP_CHECK_SAME_SHAPE(a, sum);
    BP_CHECK_SAME_SHAPE(a, out);
    BP_CHECK_RANK(gamma, 1);
    BP_CHECK_SAME_SHAPE(beta, gamma);
    BP_CHECK_NO_ALIAS(sum, a);
    BP_CHECK_NO_ALIAS(sum, b);
    BP_CHECK_NO_ALIAS(out, sum);
    BP_CHECK_NO_ALIAS(out, a);
    BP_CHECK_NO_ALIAS(out, b);
    const std::int64_t cols = gamma.shape().dim(0);
    BP_REQUIRE(a.shape().dim(-1) == cols);
    const std::int64_t rows = contracts::rowCount(a, cols);
    BP_REQUIRE(mean.numel() == rows && rstd.numel() == rows);

    parallelFor(0, rows, rowGrain(cols),
                [&](std::int64_t r_lo, std::int64_t r_hi) {
                    for (std::int64_t r = r_lo; r < r_hi; ++r) {
                        const float *av = a.data() + r * cols;
                        const float *bv = b.data() + r * cols;
                        float *srow = sum.data() + r * cols;
                        for (std::int64_t c = 0; c < cols; ++c)
                            srow[c] = av[c] + bv[c];
                        layerNormRow(srow, gamma.data(), beta.data(),
                                     cols, eps, out.data() + r * cols,
                                     mean.data() + r, rstd.data() + r);
                    }
                });
    KernelStats s = elementwiseStats(a.numel(), 2, 2, 7,
                                     dtypeBytes(a.dtype()));
    s.bytesRead += gamma.storageBytes() + beta.storageBytes();
    s.bytesWritten += mean.storageBytes() + rstd.storageBytes();
    return s;
}

KernelStats
fusedQkvForward(const Tensor &x, const Tensor &wq, const Tensor &wk,
                const Tensor &wv, const Tensor &bq, const Tensor &bk,
                const Tensor &bv, std::int64_t batch, std::int64_t seq,
                std::int64_t heads, Tensor &q3d, Tensor &k3d, Tensor &v3d)
{
    BP_CHECK_RANK(x, 2);
    const std::int64_t d_model = x.shape().dim(1);
    const std::int64_t rows = x.shape().dim(0);
    BP_REQUIRE(rows == batch * seq);
    BP_REQUIRE(heads > 0 && d_model % heads == 0);
    const std::int64_t dh = d_model / heads;
    BP_REQUIRE(wq.shape() == Shape({d_model, d_model}));
    BP_CHECK_SAME_SHAPE(wk, wq);
    BP_CHECK_SAME_SHAPE(wv, wq);
    BP_REQUIRE(bq.shape() == Shape({d_model}));
    BP_CHECK_SAME_SHAPE(bk, bq);
    BP_CHECK_SAME_SHAPE(bv, bq);
    const Shape out_shape({batch * heads, seq, dh});
    BP_REQUIRE(q3d.shape() == out_shape);
    BP_REQUIRE(k3d.shape() == out_shape);
    BP_REQUIRE(v3d.shape() == out_shape);
    BP_CHECK_NO_ALIAS(q3d, x);
    BP_CHECK_NO_ALIAS(k3d, x);
    BP_CHECK_NO_ALIAS(v3d, x);

    // Concatenated weight is rebuilt on every call (never cached) so
    // an optimizer step can't leave a stale copy behind; the copy is
    // O(3H^2) against the GEMM's O(2*T*3H^2) flops.
    Tensor wqkv(Shape({3 * d_model, d_model}));
    concatQkvWeights(wq, wk, wv, wqkv);

    // One pack(A) for x amortized over the 3H-wide packed B panel —
    // the Fig. 12b fusion, on the real packed engine.
    Tensor qkv(Shape({rows, 3 * d_model}));
    gemm(x, wqkv, qkv, false, true);

    // Fused epilogue: bias add + split-heads in one pass over qkv.
    // Adding bias before the head permutation is the same float add
    // the unfused biasForward does, so the result stays bitwise.
    const float *biases[3] = {bq.data(), bk.data(), bv.data()};
    Tensor *outs[3] = {&q3d, &k3d, &v3d};
    parallelFor(0, rows, rowGrain(3 * d_model), [&](std::int64_t r_lo,
                                                    std::int64_t r_hi) {
        for (std::int64_t r = r_lo; r < r_hi; ++r) {
            const std::int64_t b_idx = r / seq;
            const std::int64_t t = r % seq;
            const float *src = qkv.data() + r * 3 * d_model;
            for (int s = 0; s < 3; ++s) {
                const float *bias_v = biases[s];
                float *base = outs[s]->data();
                for (std::int64_t h = 0; h < heads; ++h) {
                    float *dst =
                        base + ((b_idx * heads + h) * seq + t) * dh;
                    const float *seg = src + s * d_model + h * dh;
                    const float *bseg = bias_v + h * dh;
                    for (std::int64_t j = 0; j < dh; ++j)
                        dst[j] = seg[j] + bseg[j];
                }
            }
        }
    });

    // Flops: the GEMM plus one bias add per output element (the
    // unfused split-heads moves data without arithmetic). Traffic:
    // the concat copy, the GEMM, and one fused epilogue pass instead
    // of separate bias and split passes.
    KernelStats s = gemmStats(rows, 3 * d_model, d_model, 1,
                              dtypeBytes(x.dtype()));
    s.bytesRead += wqkv.storageBytes();          // concat copy in
    s.bytesWritten += wqkv.storageBytes();       // concat copy out
    KernelStats epi = elementwiseStats(qkv.numel(), 1, 1, 1,
                                       dtypeBytes(x.dtype()));
    epi.bytesRead +=
        bq.storageBytes() + bk.storageBytes() + bv.storageBytes();
    s += epi;
    return s;
}

KernelStats
fusedQkvBackward(const Tensor &dq, const Tensor &dk, const Tensor &dv,
                 const Tensor &x, const Tensor &wq, const Tensor &wk,
                 const Tensor &wv, Tensor &dwq, Tensor &dwk, Tensor &dwv,
                 Tensor &dbq, Tensor &dbk, Tensor &dbv, Tensor &dx)
{
    BP_CHECK_RANK(x, 2);
    const std::int64_t rows = x.shape().dim(0);
    const std::int64_t d_model = x.shape().dim(1);
    BP_CHECK_SAME_SHAPE(dq, x);
    BP_CHECK_SAME_SHAPE(dk, x);
    BP_CHECK_SAME_SHAPE(dv, x);
    BP_CHECK_SAME_SHAPE(dx, x);
    BP_REQUIRE(wq.shape() == Shape({d_model, d_model}));
    BP_CHECK_SAME_SHAPE(wk, wq);
    BP_CHECK_SAME_SHAPE(wv, wq);
    BP_CHECK_SAME_SHAPE(dwq, wq);
    BP_CHECK_SAME_SHAPE(dwk, wq);
    BP_CHECK_SAME_SHAPE(dwv, wq);
    BP_REQUIRE(dbq.shape() == Shape({d_model}));
    BP_CHECK_SAME_SHAPE(dbk, dbq);
    BP_CHECK_SAME_SHAPE(dbv, dbq);
    BP_CHECK_NO_ALIAS(dx, dq);
    BP_CHECK_NO_ALIAS(dx, dk);
    BP_CHECK_NO_ALIAS(dx, dv);
    BP_CHECK_NO_ALIAS(dx, x);

    // Column-concatenate the three output grads: dqkv [T, 3H].
    Tensor dqkv(Shape({rows, 3 * d_model}));
    const float *grads[3] = {dq.data(), dk.data(), dv.data()};
    parallelFor(0, rows, rowGrain(3 * d_model),
                [&](std::int64_t r_lo, std::int64_t r_hi) {
                    for (std::int64_t r = r_lo; r < r_hi; ++r) {
                        float *dst = dqkv.data() + r * 3 * d_model;
                        for (int s = 0; s < 3; ++s) {
                            const float *src = grads[s] + r * d_model;
                            for (std::int64_t c = 0; c < d_model; ++c)
                                dst[s * d_model + c] = src[c];
                        }
                    }
                });

    // Fused weight grad: dWqkv = dqkv^T x -> [3H, H]. Each output
    // element reduces over the same T rows in the same order as the
    // per-projection GEMMs, so the row-split results are bitwise.
    Tensor dwqkv(Shape({3 * d_model, d_model}));
    gemm(dqkv, x, dwqkv, true, false);
    const std::int64_t w_per = d_model * d_model;
    Tensor *dws[3] = {&dwq, &dwk, &dwv};
    for (int s = 0; s < 3; ++s) {
        const float *src = dwqkv.data() + s * w_per;
        float *dst = dws[s]->data();
        for (std::int64_t i = 0; i < w_per; ++i)
            dst[i] = src[i];
    }

    // Fused bias grad: column sums of dqkv with the row axis kept
    // serial ascending — bitwise identical to three biasBackward
    // calls (ops/elementwise.cc uses the same order).
    float *dbs[3] = {dbq.data(), dbk.data(), dbv.data()};
    parallelFor(0, 3 * d_model, 64,
                [&](std::int64_t c_lo, std::int64_t c_hi) {
                    for (std::int64_t c = c_lo; c < c_hi; ++c) {
                        float acc = 0.0f;
                        for (std::int64_t r = 0; r < rows; ++r)
                            acc += dqkv.data()[r * 3 * d_model + c];
                        dbs[c / d_model][c % d_model] = acc;
                    }
                });

    // Fused input grad: dx = dqkv [Wq; Wk; Wv] — one k=3H GEMM
    // replacing three k=H GEMMs plus two adds. The accumulation
    // association differs, so this output is tolerance-only.
    Tensor wqkv(Shape({3 * d_model, d_model}));
    concatQkvWeights(wq, wk, wv, wqkv);
    gemm(dqkv, wqkv, dx, false, false);

    KernelStats s = gemmStats(3 * d_model, d_model, rows, 1,
                              dtypeBytes(x.dtype())); // wgrad
    s += gemmStats(rows, d_model, 3 * d_model, 1,
                   dtypeBytes(x.dtype())); // dgrad
    KernelStats bias_s = elementwiseStats(dqkv.numel(), 1, 0, 1,
                                          dtypeBytes(x.dtype()));
    bias_s.bytesWritten +=
        dbq.storageBytes() + dbk.storageBytes() + dbv.storageBytes();
    s += bias_s;
    // Concat copies (dqkv gather + wqkv build + dwqkv scatter).
    s.bytesRead += dqkv.storageBytes() + wqkv.storageBytes() +
                   dwqkv.storageBytes();
    s.bytesWritten += dqkv.storageBytes() + wqkv.storageBytes() +
                      dwqkv.storageBytes();
    return s;
}

KernelStats
fusedAttentionEvalForward(const Tensor &q3d, const Tensor &k3d,
                          const Tensor &v3d, const Tensor &mask,
                          std::int64_t heads, float scale, Tensor &context)
{
    BP_CHECK_RANK(q3d, 3);
    BP_CHECK_SAME_SHAPE(k3d, q3d);
    BP_CHECK_SAME_SHAPE(v3d, q3d);
    BP_CHECK_SAME_SHAPE(context, q3d);
    BP_CHECK_NO_ALIAS(context, q3d);
    BP_CHECK_NO_ALIAS(context, k3d);
    BP_CHECK_NO_ALIAS(context, v3d);
    BP_CHECK_NO_ALIAS(context, mask);
    const std::int64_t groups = q3d.shape().dim(0);
    const std::int64_t n = q3d.shape().dim(1);
    const std::int64_t dh = q3d.shape().dim(2);
    BP_REQUIRE(heads > 0 && groups % heads == 0);
    const bool per_sequence =
        mask.shape() == Shape({groups / heads, n, n});
    BP_REQUIRE(per_sequence || mask.shape() == Shape({n, n}));

    parallelFor(0, groups, 1, [&](std::int64_t g_lo, std::int64_t g_hi) {
        // Per-worker scratch: one [n, n] score block, reused for every
        // group this worker owns. The block cycles through the cache
        // instead of the [B*h, n, n] tensor the unfused chain
        // materializes (and round-trips twice); flash-attention-style,
        // the tile is the thing fusion keeps on chip. Both GEMMs run
        // on the packed microkernel (thread-local packing buffers —
        // concurrency-safe), with the score scale folded into alpha.
        float *sblk = scratchRow(n * n);
        for (std::int64_t g = g_lo; g < g_hi; ++g) {
            const float *qg = q3d.data() + g * n * dh;
            const float *kg = k3d.data() + g * n * dh;
            const float *vg = v3d.data() + g * n * dh;
            const float *mg = per_sequence
                                  ? mask.data() + (g / heads) * n * n
                                  : mask.data();
            float *og = context.data() + g * n * dh;
            // S = scale * q_g k_g^T  ([n, dh] x [n, dh]^T -> [n, n]).
            gemmPackedRows(qg, kg, sblk, n, n, dh, false, true, scale,
                           0.0f, 0, n);
            // Rows: mask add + the exact row algorithm of
            // softmaxForward (max, exp, double-accumulated
            // denominator, multiply by the float inverse), in place.
            for (std::int64_t i = 0; i < n; ++i) {
                float *srow = sblk + i * n;
                const float *mi = mg + i * n;
                float mx = srow[0] + mi[0];
                for (std::int64_t j = 0; j < n; ++j) {
                    srow[j] += mi[j];
                    mx = std::max(mx, srow[j]);
                }
                double denom = 0.0;
                for (std::int64_t j = 0; j < n; ++j) {
                    srow[j] = std::exp(srow[j] - mx);
                    denom += srow[j];
                }
                const float inv = static_cast<float>(1.0 / denom);
                for (std::int64_t j = 0; j < n; ++j)
                    srow[j] *= inv;
            }
            // context_g = P v_g  ([n, n] x [n, dh] -> [n, dh]).
            gemmPackedRows(sblk, vg, og, n, dh, n, false, false, 1.0f,
                           0.0f, 0, n);
        }
    });

    // Flops summed from the constituent unfused ops: the score
    // batched GEMM, scale, mask add, softmax (~4/elem), and the
    // context batched GEMM. Traffic is what the fused kernel moves at
    // the memory level: q/k/v read, mask read per group, context
    // written. The per-worker score block is cache-resident scratch
    // and excluded, exactly like an accelerator fusion excludes
    // on-chip tiles — no score or probs DRAM round trips.
    const std::int64_t score_elems = groups * n * n;
    KernelStats s;
    s.flops = gemmStats(n, n, dh, groups).flops       // scores
              + score_elems                            // scale
              + score_elems                            // mask add
              + 4 * score_elems                        // softmax
              + gemmStats(n, dh, n, groups).flops;     // context
    const std::int64_t eb = dtypeBytes(q3d.dtype());
    s.bytesRead = (q3d.numel() + k3d.numel() + v3d.numel()) * eb +
                  mask.storageBytes() *
                      (per_sequence ? heads : groups);
    s.bytesWritten = context.numel() * eb;
    return s;
}

} // namespace bertprof

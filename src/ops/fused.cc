#include "ops/fused.h"

#include <algorithm>
#include <vector>

#include "ops/gelu_kernels.h"
#include "ops/gemm.h"
#include "ops/gemm_microkernel.h"
#include "ops/layernorm.h"
#include "ops/softmax.h"
#include "runtime/parallel_for.h"
#include "tensor/contracts.h"
#include "util/logging.h"

namespace bertprof {

namespace {

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
    const std::int64_t per = wq.numel();
    const float *srcs[3] = {wq.data(), wk.data(), wv.data()};
    for (int s = 0; s < 3; ++s)
        std::copy(srcs[s], srcs[s] + per, wqkv.data() + s * per);

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
            // Rows: mask add, then softmaxForward's own row kernel,
            // in place on the cache-resident block.
            for (std::int64_t i = 0; i < n; ++i) {
                float *srow = sblk + i * n;
                const float *mi = mg + i * n;
                for (std::int64_t j = 0; j < n; ++j)
                    srow[j] += mi[j];
                softmaxRow(srow, srow, n);
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

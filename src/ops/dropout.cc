#include "ops/dropout.h"

#include <cmath>

#include "runtime/parallel_for.h"
#include "tensor/contracts.h"
#include "util/logging.h"

namespace bertprof {

namespace {

std::uint64_t
dropoutDraw(std::uint64_t key, std::int64_t index)
{
    // splitmix64 (Steele, Lea & Flood, OOPSLA'14): output `index` of
    // the stream seeded with `key`, i.e. its finalizer applied to
    // key + (index + 1) * golden-ratio increment.
    std::uint64_t z = key + (static_cast<std::uint64_t>(index) + 1) *
                                0x9E3779B97F4A7C15ULL;
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
    return z ^ (z >> 31);
}

} // namespace

KernelStats
dropoutForward(const Tensor &in, float p, Rng &rng, Tensor &out,
               Tensor &mask)
{
    BP_CHECK_SAME_SHAPE(in, out);
    BP_CHECK_SAME_SHAPE(in, mask);
    BP_CHECK_NO_PARTIAL_ALIAS(out, in);
    BP_CHECK_NO_ALIAS(mask, in);
    BP_CHECK_NO_ALIAS(mask, out);
    BP_REQUIRE(p >= 0.0f && p < 1.0f);
    const std::int64_t n = in.numel();
    const float keep_scale = 1.0f / (1.0f - p);
    // One key per call (none at p == 0, where every element is kept);
    // each element's draw is then a pure function of (key, index), so
    // the mask is the same bits for any chunking or thread count.
    const std::uint64_t key = p == 0.0f ? 0 : rng.engine()();
    // Drop iff the 64-bit draw falls below p * 2^64 (exact for p < 1).
    const auto threshold =
        static_cast<std::uint64_t>(std::ldexp(static_cast<double>(p), 64));
    parallelFor(0, n, kElementwiseGrain,
                [&](std::int64_t lo, std::int64_t hi) {
                    const float *x = in.data();
                    float *y = out.data();
                    float *mk = mask.data();
                    for (std::int64_t i = lo; i < hi; ++i) {
                        const float m =
                            dropoutDraw(key, i) < threshold ? 0.0f
                                                            : keep_scale;
                        mk[i] = m;
                        y[i] = x[i] * m;
                    }
                });
    return elementwiseStats(n, 1, 2, 2, dtypeBytes(in.dtype()));
}

KernelStats
dropoutBackward(const Tensor &dout, const Tensor &mask, Tensor &din)
{
    BP_CHECK_SAME_SHAPE(dout, mask);
    BP_CHECK_SAME_SHAPE(dout, din);
    BP_CHECK_NO_PARTIAL_ALIAS(din, dout);
    BP_CHECK_NO_ALIAS(din, mask);
    const std::int64_t n = dout.numel();
    parallelFor(0, n, kElementwiseGrain,
                [&](std::int64_t lo, std::int64_t hi) {
                    for (std::int64_t i = lo; i < hi; ++i)
                        din.data()[i] = dout.data()[i] * mask.data()[i];
                });
    return elementwiseStats(n, 2, 1, 1, dtypeBytes(dout.dtype()));
}

KernelStats
dropoutEvalForward(const Tensor &in, Tensor &out)
{
    BP_CHECK_SAME_SHAPE(in, out);
    BP_CHECK_NO_PARTIAL_ALIAS(out, in);
    const std::int64_t n = in.numel();
    parallelFor(0, n, kElementwiseGrain,
                [&](std::int64_t lo, std::int64_t hi) {
                    for (std::int64_t i = lo; i < hi; ++i)
                        out.data()[i] = in.data()[i];
                });
    return elementwiseStats(n, 1, 1, 1, dtypeBytes(in.dtype()));
}

} // namespace bertprof

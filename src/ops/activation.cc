#include "ops/activation.h"

#include <cmath>

#include "ops/gelu_kernels.h"
#include "runtime/parallel_for.h"
#include "tensor/contracts.h"
#include "util/logging.h"

namespace bertprof {

KernelStats
geluForward(const Tensor &in, Tensor &out)
{
    BP_CHECK_SAME_SHAPE(in, out);
    BP_CHECK_NO_PARTIAL_ALIAS(out, in);
    const std::int64_t n = in.numel();
    const GeluKernels &gelu = selectedGeluKernels();
    parallelFor(0, n, kElementwiseGrain,
                [&](std::int64_t lo, std::int64_t hi) {
                    gelu.forward(in.data() + lo, out.data() + lo, hi - lo);
                });
    // The paper decomposes unfused GeLU into ~5 EW ops (mul, add,
    // div, erf, mul); we count the fused arithmetic here.
    return elementwiseStats(n, 1, 1, 5, dtypeBytes(in.dtype()));
}

KernelStats
geluBackward(const Tensor &in, const Tensor &dout, Tensor &din)
{
    BP_CHECK_SAME_SHAPE(in, dout);
    BP_CHECK_SAME_SHAPE(in, din);
    BP_CHECK_NO_PARTIAL_ALIAS(din, in);
    BP_CHECK_NO_PARTIAL_ALIAS(din, dout);
    const std::int64_t n = in.numel();
    const GeluKernels &gelu = selectedGeluKernels();
    parallelFor(0, n, kElementwiseGrain,
                [&](std::int64_t lo, std::int64_t hi) {
                    gelu.backward(in.data() + lo, dout.data() + lo,
                                  din.data() + lo, hi - lo);
                });
    return elementwiseStats(n, 2, 1, 8, dtypeBytes(in.dtype()));
}

KernelStats
reluForward(const Tensor &in, Tensor &out)
{
    BP_CHECK_SAME_SHAPE(in, out);
    BP_CHECK_NO_PARTIAL_ALIAS(out, in);
    const std::int64_t n = in.numel();
    parallelFor(0, n, kElementwiseGrain,
                [&](std::int64_t lo, std::int64_t hi) {
                    for (std::int64_t i = lo; i < hi; ++i)
                        out.data()[i] =
                            in.data()[i] > 0.0f ? in.data()[i] : 0.0f;
                });
    return elementwiseStats(n, 1, 1, 1, dtypeBytes(in.dtype()));
}

KernelStats
reluBackward(const Tensor &in, const Tensor &dout, Tensor &din)
{
    BP_CHECK_SAME_SHAPE(in, dout);
    BP_CHECK_SAME_SHAPE(in, din);
    BP_CHECK_NO_PARTIAL_ALIAS(din, in);
    BP_CHECK_NO_PARTIAL_ALIAS(din, dout);
    const std::int64_t n = in.numel();
    parallelFor(0, n, kElementwiseGrain,
                [&](std::int64_t lo, std::int64_t hi) {
                    for (std::int64_t i = lo; i < hi; ++i)
                        din.data()[i] =
                            in.data()[i] > 0.0f ? dout.data()[i] : 0.0f;
                });
    return elementwiseStats(n, 2, 1, 1, dtypeBytes(in.dtype()));
}

KernelStats
tanhForward(const Tensor &in, Tensor &out)
{
    BP_CHECK_SAME_SHAPE(in, out);
    BP_CHECK_NO_PARTIAL_ALIAS(out, in);
    const std::int64_t n = in.numel();
    parallelFor(0, n, kElementwiseGrain,
                [&](std::int64_t lo, std::int64_t hi) {
                    for (std::int64_t i = lo; i < hi; ++i)
                        out.data()[i] = std::tanh(in.data()[i]);
                });
    return elementwiseStats(n, 1, 1, 4, dtypeBytes(in.dtype()));
}

KernelStats
tanhBackward(const Tensor &out, const Tensor &dout, Tensor &din)
{
    BP_CHECK_SAME_SHAPE(out, dout);
    BP_CHECK_SAME_SHAPE(out, din);
    BP_CHECK_NO_PARTIAL_ALIAS(din, out);
    BP_CHECK_NO_PARTIAL_ALIAS(din, dout);
    const std::int64_t n = out.numel();
    parallelFor(0, n, kElementwiseGrain,
                [&](std::int64_t lo, std::int64_t hi) {
                    for (std::int64_t i = lo; i < hi; ++i) {
                        const float y = out.data()[i];
                        din.data()[i] = dout.data()[i] * (1.0f - y * y);
                    }
                });
    return elementwiseStats(n, 2, 1, 3, dtypeBytes(out.dtype()));
}

} // namespace bertprof

// AVX2+FMA variant of the float cross-entropy rows (8 lanes). Built
// with -mavx2 -mfma (src/ops/CMakeLists.txt) and run only on CPUs
// that selectedIsa() found to support it; it exports nothing but its
// entry point (see ops/vec_math_impl.h).

#include "ops/cross_entropy_kernels_impl.h"

namespace bertprof {

const CrossEntropyKernels &
crossEntropyKernelsAvx2()
{
    static constexpr CrossEntropyKernels kernels = {scaledSoftmaxRow<8>};
    return kernels;
}

} // namespace bertprof

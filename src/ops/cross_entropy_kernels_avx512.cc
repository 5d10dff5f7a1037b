// AVX-512 variant of the float cross-entropy rows (16 lanes). Built
// with -mavx512f -mavx2 -mfma (src/ops/CMakeLists.txt) and run only
// on CPUs that selectedIsa() found to support it; it exports nothing
// but its entry point (see ops/vec_math_impl.h).

#include "ops/cross_entropy_kernels_impl.h"

namespace bertprof {

const CrossEntropyKernels &
crossEntropyKernelsAvx512()
{
    static constexpr CrossEntropyKernels kernels = {scaledSoftmaxRow<16>};
    return kernels;
}

} // namespace bertprof

// AVX-512 variant of the float GeLU rows (16 lanes). Built with
// -mavx512f -mavx2 -mfma (src/ops/CMakeLists.txt) and run only on
// CPUs that selectedIsa() found to support it; it exports nothing but
// its entry point (see ops/gelu_kernels_impl.h).

#include "ops/gelu_kernels_impl.h"

namespace bertprof {

const GeluKernels &
geluKernelsAvx512()
{
    static constexpr GeluKernels kernels = {geluForwardRows<16>,
                                            geluBackwardRows<16>};
    return kernels;
}

} // namespace bertprof

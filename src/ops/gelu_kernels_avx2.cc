// AVX2+FMA variant of the float GeLU rows (8 lanes). Built with
// -mavx2 -mfma (src/ops/CMakeLists.txt) and run only on CPUs that
// selectedIsa() found to support it; it exports nothing but its entry
// point (see ops/gelu_kernels_impl.h).

#include "ops/gelu_kernels_impl.h"

namespace bertprof {

const GeluKernels &
geluKernelsAvx2()
{
    static constexpr GeluKernels kernels = {geluForwardRows<8>,
                                            geluBackwardRows<8>};
    return kernels;
}

} // namespace bertprof

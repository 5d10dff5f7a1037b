// Baseline variant of the float GeLU rows (4 lanes, the build's
// default ISA) and the per-ISA lookup.

#include "ops/gelu_kernels.h"

#include "ops/gelu_kernels_impl.h"
#include "util/logging.h"

namespace bertprof {

const GeluKernels &
geluKernelsBaseline()
{
    static constexpr GeluKernels kernels = {geluForwardRows<4>,
                                            geluBackwardRows<4>};
    return kernels;
}

const GeluKernels &
geluKernels(Isa isa)
{
    BP_REQUIRE(isaSupported(isa));
    switch (isa) {
#if defined(BP_X86_ISA_VARIANTS)
    case Isa::Avx2:
        return geluKernelsAvx2();
    case Isa::Avx512:
        return geluKernelsAvx512();
#endif
    default:
        return geluKernelsBaseline();
    }
}

const GeluKernels &
selectedGeluKernels()
{
    static const GeluKernels &selected = geluKernels(selectedIsa());
    return selected;
}

} // namespace bertprof

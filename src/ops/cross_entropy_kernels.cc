// Baseline variant of the float cross-entropy rows (4 lanes, the
// build's default ISA) and the per-ISA lookup.

#include "ops/cross_entropy_kernels.h"

#include "ops/cross_entropy_kernels_impl.h"
#include "util/logging.h"

namespace bertprof {

const CrossEntropyKernels &
crossEntropyKernelsBaseline()
{
    static constexpr CrossEntropyKernels kernels = {scaledSoftmaxRow<4>};
    return kernels;
}

const CrossEntropyKernels &
crossEntropyKernels(Isa isa)
{
    BP_REQUIRE(isaSupported(isa));
    switch (isa) {
#if defined(BP_X86_ISA_VARIANTS)
    case Isa::Avx2:
        return crossEntropyKernelsAvx2();
    case Isa::Avx512:
        return crossEntropyKernelsAvx512();
#endif
    default:
        return crossEntropyKernelsBaseline();
    }
}

const CrossEntropyKernels &
selectedCrossEntropyKernels()
{
    static const CrossEntropyKernels &selected =
        crossEntropyKernels(selectedIsa());
    return selected;
}

} // namespace bertprof

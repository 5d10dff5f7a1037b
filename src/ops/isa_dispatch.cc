#include "ops/isa_dispatch.h"

namespace bertprof {

namespace {

#if defined(BP_X86_ISA_VARIANTS)
// __builtin_cpu_supports reports an AVX-family feature only when the
// OS also saves its register state (XCR0). __builtin_cpu_init makes
// the query safe from static initializers.
bool
hasAvx2Fma()
{
    __builtin_cpu_init();
    return __builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma");
}

bool
hasAvx512()
{
    return hasAvx2Fma() && __builtin_cpu_supports("avx512f");
}
#endif

} // namespace

const char *
isaName(Isa isa)
{
    switch (isa) {
    case Isa::Baseline:
        return "baseline";
    case Isa::Avx2:
        return "avx2";
    case Isa::Avx512:
        return "avx512";
    }
    return "unknown";
}

bool
isaSupported(Isa isa)
{
    switch (isa) {
    case Isa::Baseline:
        return true;
#if defined(BP_X86_ISA_VARIANTS)
    case Isa::Avx2:
        return hasAvx2Fma();
    case Isa::Avx512:
        return hasAvx512();
#endif
    default:
        return false;
    }
}

Isa
selectedIsa()
{
    static const Isa selected = [] {
        Isa widest = Isa::Baseline;
        for (int i = 0; i < kIsaCount; ++i)
            if (isaSupported(static_cast<Isa>(i)))
                widest = static_cast<Isa>(i);
        return widest;
    }();
    return selected;
}

} // namespace bertprof

// PCLMULQDQ folding path of crc32() (io/crc32.h). Built with -mpclmul
// (src/io/CMakeLists.txt) and run only when crc32.cc found the
// instruction with __builtin_cpu_supports; it exports nothing but its
// entry point (tests/check_isa_variant_symbols.sh).
//
// The register state is the reflected CRC: bit 0 of a byte is its
// highest-degree coefficient, so a 128-bit lane holds the next 16
// bytes of the message with the earliest bit in bit 0. Each constant
// is x^n mod P, bit-reflected and shifted by one (Gopal et al., Intel,
// 2009): folding a lane forward by d bits multiplies its two 64-bit
// halves by x^(d+32) and x^(d-32) mod P.

#include <cstddef>
#include <cstdint>

#include <emmintrin.h>
#include <wmmintrin.h>

namespace bertprof {

namespace {

/** Fold the lane `x` forward by the distance that `k` encodes. */
inline __m128i
fold(__m128i x, __m128i k)
{
    return _mm_xor_si128(_mm_clmulepi64_si128(x, k, 0x00),
                         _mm_clmulepi64_si128(x, k, 0x11));
}

inline __m128i
load(const unsigned char *p)
{
    return _mm_loadu_si128(reinterpret_cast<const __m128i *>(p));
}

} // namespace

/**
 * Advance the reflected CRC register `state` (already inverted, as
 * slice-by-8 keeps it) over `size` bytes at `p`; `size` is a multiple
 * of 16 and at least 64. Returns the register, still inverted.
 */
std::uint32_t
crc32FoldPclmul(std::uint32_t state, const unsigned char *p,
                std::size_t size)
{
    // Low qword multiplies a lane's low half, high qword its high half.
    const __m128i by512 = _mm_set_epi64x(0x1c6e41596LL, 0x154442bd4LL);
    const __m128i by128 = _mm_set_epi64x(0x0ccaa009eLL, 0x1751997d0LL);
    const __m128i by64 = _mm_set_epi64x(0, 0x163cd6124LL);
    // Barrett: low qword P' (the polynomial), high qword mu.
    const __m128i barrett = _mm_set_epi64x(0x1f7011641LL, 0x1db710641LL);
    const __m128i low32 = _mm_set_epi32(0, 0, 0, -1);

    __m128i x0 = _mm_xor_si128(load(p),
                               _mm_cvtsi32_si128(static_cast<int>(state)));
    __m128i x1 = load(p + 16);
    __m128i x2 = load(p + 32);
    __m128i x3 = load(p + 48);
    p += 64;
    size -= 64;
    // Four independent lanes hide the multiply latency.
    for (; size >= 64; size -= 64, p += 64) {
        x0 = _mm_xor_si128(fold(x0, by512), load(p));
        x1 = _mm_xor_si128(fold(x1, by512), load(p + 16));
        x2 = _mm_xor_si128(fold(x2, by512), load(p + 32));
        x3 = _mm_xor_si128(fold(x3, by512), load(p + 48));
    }
    x0 = _mm_xor_si128(fold(x0, by128), x1);
    x0 = _mm_xor_si128(fold(x0, by128), x2);
    x0 = _mm_xor_si128(fold(x0, by128), x3);
    for (; size >= 16; size -= 16, p += 16)
        x0 = _mm_xor_si128(fold(x0, by128), load(p));

    // 128 -> 64 bits: the low half moves forward past the high half.
    x0 = _mm_xor_si128(_mm_clmulepi64_si128(x0, by128, 0x10),
                       _mm_srli_si128(x0, 8));
    // 64 -> 32 bits, appending the 32 zero bits the CRC definition
    // multiplies the message by.
    x0 = _mm_xor_si128(
        _mm_clmulepi64_si128(_mm_and_si128(x0, low32), by64, 0x00),
        _mm_srli_si128(x0, 4));
    // Barrett reduction modulo P.
    __m128i t = _mm_clmulepi64_si128(_mm_and_si128(x0, low32), barrett,
                                     0x10);
    t = _mm_clmulepi64_si128(_mm_and_si128(t, low32), barrett, 0x00);
    x0 = _mm_xor_si128(x0, t);
    return static_cast<std::uint32_t>(
        _mm_cvtsi128_si32(_mm_srli_si128(x0, 4)));
}

} // namespace bertprof

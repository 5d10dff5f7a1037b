#include "io/crc32.h"

#include <array>

namespace bertprof {

#if defined(BP_X86_CRC_FOLD)
// crc32_pclmul.cc, built with -mpclmul.
std::uint32_t crc32FoldPclmul(std::uint32_t state, const unsigned char *p,
                              std::size_t size);
#endif

namespace {

using Tables = std::array<std::array<std::uint32_t, 256>, 8>;

/**
 * Slice-by-8 tables (Kounavis & Berry): tables[0] is the classic
 * byte-at-a-time table; tables[k][b] is the CRC of byte b followed by
 * k zero bytes, so eight table lookups advance the CRC by 8 bytes.
 */
Tables
makeTables()
{
    Tables t{};
    for (std::uint32_t i = 0; i < 256; ++i) {
        std::uint32_t c = i;
        for (int k = 0; k < 8; ++k)
            c = (c & 1u) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
        t[0][i] = c;
    }
    for (std::uint32_t i = 0; i < 256; ++i)
        for (std::size_t k = 1; k < 8; ++k)
            t[k][i] = t[0][t[k - 1][i] & 0xFFu] ^ (t[k - 1][i] >> 8);
    return t;
}

/** Little-endian 32-bit load from any alignment. */
inline std::uint32_t
load32(const unsigned char *p)
{
    return static_cast<std::uint32_t>(p[0]) |
           static_cast<std::uint32_t>(p[1]) << 8 |
           static_cast<std::uint32_t>(p[2]) << 16 |
           static_cast<std::uint32_t>(p[3]) << 24;
}

/** Advance the (inverted) CRC register `c` over `size` bytes. */
std::uint32_t
sliceBy8(std::uint32_t c, const unsigned char *p, std::size_t size)
{
    static const Tables t = makeTables();
    for (; size >= 8; size -= 8, p += 8) {
        const std::uint32_t lo = load32(p) ^ c;
        const std::uint32_t hi = load32(p + 4);
        c = t[7][lo & 0xFFu] ^ t[6][(lo >> 8) & 0xFFu] ^
            t[5][(lo >> 16) & 0xFFu] ^ t[4][lo >> 24] ^
            t[3][hi & 0xFFu] ^ t[2][(hi >> 8) & 0xFFu] ^
            t[1][(hi >> 16) & 0xFFu] ^ t[0][hi >> 24];
    }
    for (; size > 0; --size, ++p)
        c = t[0][(c ^ *p) & 0xFFu] ^ (c >> 8);
    return c;
}

#if defined(BP_X86_CRC_FOLD)
bool
useFold()
{
    static const bool fold = __builtin_cpu_supports("pclmul");
    return fold;
}
#endif

} // namespace

std::uint32_t
crc32(const void *data, std::size_t size, std::uint32_t seed)
{
    const auto *p = static_cast<const unsigned char *>(data);
    std::uint32_t c = seed ^ 0xFFFFFFFFu;
#if defined(BP_X86_CRC_FOLD)
    if (size >= 64 && useFold()) {
        const std::size_t folded = size & ~std::size_t{15};
        c = crc32FoldPclmul(c, p, folded);
        p += folded;
        size -= folded;
    }
#endif
    return sliceBy8(c, p, size) ^ 0xFFFFFFFFu;
}

std::uint32_t
crc32SliceBy8(const void *data, std::size_t size, std::uint32_t seed)
{
    return sliceBy8(seed ^ 0xFFFFFFFFu,
                    static_cast<const unsigned char *>(data), size) ^
           0xFFFFFFFFu;
}

} // namespace bertprof

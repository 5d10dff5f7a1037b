/**
 * @file
 * CRC-32 (IEEE 802.3, polynomial 0xEDB88320) used to checksum
 * checkpoint payloads and trace chunks. Incremental-friendly: feed
 * chunks by passing the previous return value as `seed`.
 *
 * Two paths compute the same bits. On x86 CPUs with PCLMULQDQ, runs
 * of 64 bytes or more are folded 64 bytes at a time with carry-less
 * multiplies (Gopal et al., "Fast CRC Computation for Generic
 * Polynomials Using PCLMULQDQ Instruction", Intel, 2009) and reduced
 * to 32 bits by a Barrett step; everything else, and every CPU
 * without the instruction, runs slice-by-8 (eight table lookups per
 * 8 bytes). The path is picked once per process.
 */

#ifndef BERTPROF_IO_CRC32_H
#define BERTPROF_IO_CRC32_H

#include <cstddef>
#include <cstdint>
#include <string>

namespace bertprof {

/** CRC-32 of `size` bytes, continuing from `seed` (0 to start). */
std::uint32_t crc32(const void *data, std::size_t size,
                    std::uint32_t seed = 0);

/** CRC-32 of a whole string. */
inline std::uint32_t
crc32(const std::string &data)
{
    return crc32(data.data(), data.size());
}

/** The portable slice-by-8 path alone: crc32()'s fallback and the
 *  oracle the folded path is tested against. */
std::uint32_t crc32SliceBy8(const void *data, std::size_t size,
                            std::uint32_t seed = 0);

} // namespace bertprof

#endif // BERTPROF_IO_CRC32_H

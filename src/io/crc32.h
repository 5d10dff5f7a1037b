/**
 * @file
 * CRC-32 (IEEE 802.3, polynomial 0xEDB88320) used to checksum
 * checkpoint payloads. Slice-by-8 (eight table lookups per 8 bytes),
 * incremental-friendly: feed chunks by passing the previous return
 * value as `seed`.
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

} // namespace bertprof

#endif // BERTPROF_IO_CRC32_H

#ifndef TDR_WAL_CRC32C_H_
#define TDR_WAL_CRC32C_H_

#include <cstddef>
#include <cstdint>

namespace tdr::wal {

/// CRC-32C (Castagnoli, polynomial 0x1EDC6F41 reflected to 0x82F63B78)
/// — the checksum over every WAL record and every proc frame body, so
/// it runs once per logged write and once per frame on the hot path.
/// On x86-64 CPUs with SSE4.2 it uses the `crc32` instruction, 8 bytes
/// per step; elsewhere a 256-entry table, one byte per step. The CPU
/// check runs once, on first use, and both paths give identical
/// results. Standard check value: Crc32c("123456789") == 0xE3069283.
std::uint32_t Crc32c(const void* data, std::size_t size);

/// Incremental form: feed `crc` the result of a previous call to extend
/// the checksum over split buffers.
std::uint32_t Crc32cExtend(std::uint32_t crc, const void* data,
                           std::size_t size);

namespace detail {

/// The portable table path, whatever the CPU supports. Tests compare it
/// with the dispatched path; nothing else should call it.
std::uint32_t Crc32cExtendPortable(std::uint32_t crc, const void* data,
                                   std::size_t size);

}  // namespace detail

}  // namespace tdr::wal

#endif  // TDR_WAL_CRC32C_H_

#include "wal/crc32c.h"

#include <cstring>

#if defined(__x86_64__)
#include <nmmintrin.h>
#define TDR_CRC32C_SSE42 1
#endif

namespace tdr::wal {

namespace {

struct Table {
  std::uint32_t t[256];
  constexpr Table() : t{} {
    constexpr std::uint32_t kPoly = 0x82F63B78u;  // reflected Castagnoli
    for (std::uint32_t i = 0; i < 256; ++i) {
      std::uint32_t crc = i;
      for (int b = 0; b < 8; ++b) {
        crc = (crc & 1u) ? (crc >> 1) ^ kPoly : crc >> 1;
      }
      t[i] = crc;
    }
  }
};

constexpr Table kTable;

#ifdef TDR_CRC32C_SSE42

// Compiled for SSE4.2 whatever the build flags say; only called once
// the CPU check has passed. The instruction works on the raw
// (uninverted) register, like the table loop.
__attribute__((target("sse4.2"))) std::uint32_t ExtendSse42(
    std::uint32_t crc, const unsigned char* p, std::size_t size) {
  std::uint64_t c = ~crc;
  for (; size >= 8; p += 8, size -= 8) {
    std::uint64_t word = 0;
    std::memcpy(&word, p, 8);
    c = _mm_crc32_u64(c, word);
  }
  auto c32 = static_cast<std::uint32_t>(c);
  if (size >= 4) {
    std::uint32_t word = 0;
    std::memcpy(&word, p, 4);
    c32 = _mm_crc32_u32(c32, word);
    p += 4;
    size -= 4;
  }
  for (; size > 0; ++p, --size) c32 = _mm_crc32_u8(c32, *p);
  return ~c32;
}

bool HasSse42() {
  __builtin_cpu_init();
  return __builtin_cpu_supports("sse4.2");
}

#else

bool HasSse42() { return false; }

#endif  // TDR_CRC32C_SSE42

// Decided once, on the first checksum of the run.
bool UseHardware() {
  static const bool use = HasSse42();
  return use;
}

}  // namespace

namespace detail {

std::uint32_t Crc32cExtendPortable(std::uint32_t crc, const void* data,
                                   std::size_t size) {
  const auto* p = static_cast<const unsigned char*>(data);
  crc = ~crc;
  for (std::size_t i = 0; i < size; ++i) {
    crc = kTable.t[(crc ^ p[i]) & 0xFFu] ^ (crc >> 8);
  }
  return ~crc;
}

}  // namespace detail

std::uint32_t Crc32cExtend(std::uint32_t crc, const void* data,
                           std::size_t size) {
#ifdef TDR_CRC32C_SSE42
  if (UseHardware()) {
    return ExtendSse42(crc, static_cast<const unsigned char*>(data), size);
  }
#endif
  return detail::Crc32cExtendPortable(crc, data, size);
}

std::uint32_t Crc32c(const void* data, std::size_t size) {
  return Crc32cExtend(0, data, size);
}

}  // namespace tdr::wal

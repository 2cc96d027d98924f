#ifndef TDR_UTIL_LITTLE_ENDIAN_H_
#define TDR_UTIL_LITTLE_ENDIAN_H_

#include <bit>
#include <cstdint>
#include <cstring>

namespace tdr {

/// Fixed-width little-endian stores and loads at unaligned addresses —
/// the one field codec shared by the WAL record and the proc frame.
/// Each compiles to a single move on little-endian hosts (plus a byte
/// swap on big-endian ones), so an encoder can size its output once and
/// write every field at its fixed offset.
inline void StoreLE32(void* p, std::uint32_t v) {
  if constexpr (std::endian::native == std::endian::big) {
    v = __builtin_bswap32(v);
  }
  std::memcpy(p, &v, sizeof v);
}

inline void StoreLE64(void* p, std::uint64_t v) {
  if constexpr (std::endian::native == std::endian::big) {
    v = __builtin_bswap64(v);
  }
  std::memcpy(p, &v, sizeof v);
}

inline std::uint32_t LoadLE32(const void* p) {
  std::uint32_t v = 0;
  std::memcpy(&v, p, sizeof v);
  if constexpr (std::endian::native == std::endian::big) {
    v = __builtin_bswap32(v);
  }
  return v;
}

inline std::uint64_t LoadLE64(const void* p) {
  std::uint64_t v = 0;
  std::memcpy(&v, p, sizeof v);
  if constexpr (std::endian::native == std::endian::big) {
    v = __builtin_bswap64(v);
  }
  return v;
}

}  // namespace tdr

#endif  // TDR_UTIL_LITTLE_ENDIAN_H_

#ifndef TDR_UTIL_DECIMAL_H_
#define TDR_UTIL_DECIMAL_H_

#include <charconv>
#include <cstdint>
#include <string_view>
#include <system_error>

namespace tdr {

/// Strict unsigned decimal for the line-oriented text codecs (the proc
/// NodeReport and config payload): the whole of `text` must be ASCII
/// digits — no sign, no blanks, no trailing bytes — and fit in 64 bits.
/// Returns false otherwise and leaves *out untouched.
inline bool ParseDecimalU64(std::string_view text, std::uint64_t* out) {
  std::uint64_t value = 0;
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, value);
  if (ec != std::errc() || ptr != end) return false;
  *out = value;
  return true;
}

}  // namespace tdr

#endif  // TDR_UTIL_DECIMAL_H_

#ifndef TDR_TESTS_BYTE_MUTATOR_H_
#define TDR_TESTS_BYTE_MUTATOR_H_

// Seeded multi-byte mutations for the decoder robustness suites
// (wal_test, proc_frame_test). One mt19937_64 stream drives every
// choice, so a seed names the whole battery and a failure replays
// exactly. The mutations are the ones a torn write, a misframed socket
// read or bit rot produce: short overwrites, truncations, spans spliced
// in from another encoding, and rewritten length fields.

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <random>
#include <vector>

#include "util/little_endian.h"

namespace tdr::testutil {

class ByteMutator {
 public:
  explicit ByteMutator(std::uint64_t seed) : rng_(seed) {}

  /// Uniform-ish draw in [0, n); n must be positive.
  std::uint64_t Below(std::uint64_t n) { return rng_() % n; }

  /// Applies one to three mutations to `*bytes` in place. `donor`
  /// supplies spliced spans; `length_fields` lists the offsets of the
  /// little-endian u32 length fields in the unmutated encoding.
  template <typename Bytes>
  void Mutate(Bytes* bytes, const Bytes& donor,
              const std::vector<std::size_t>& length_fields) {
    const std::uint64_t rounds = 1 + Below(3);
    for (std::uint64_t r = 0; r < rounds; ++r) {
      switch (Below(4)) {
        case 0:
          Overwrite(bytes);
          break;
        case 1:
          if (!bytes->empty()) bytes->resize(Below(bytes->size()));
          break;
        case 2:
          Splice(bytes, donor);
          break;
        default:
          RewriteLength(bytes, length_fields);
          break;
      }
    }
  }

 private:
  using Byte = unsigned char;

  template <typename Bytes>
  void Overwrite(Bytes* bytes) {
    if (bytes->empty()) return;
    const std::size_t at = Below(bytes->size());
    const std::size_t n =
        1 + Below(std::min<std::size_t>(8, bytes->size() - at));
    for (std::size_t i = 0; i < n; ++i) {
      (*bytes)[at + i] = static_cast<typename Bytes::value_type>(Below(256));
    }
  }

  // Replaces up to 8 bytes at a random offset with a 1..32-byte span of
  // `donor`: an insertion, a replacement or a shrink.
  template <typename Bytes>
  void Splice(Bytes* bytes, const Bytes& donor) {
    if (donor.empty()) return;
    const std::size_t from = Below(donor.size());
    const std::size_t len =
        1 + Below(std::min<std::size_t>(32, donor.size() - from));
    const std::size_t at = Below(bytes->size() + 1);
    const std::size_t cut =
        Below(std::min<std::size_t>(8, bytes->size() - at) + 1);
    Bytes out(bytes->begin(), bytes->begin() + at);
    out.insert(out.end(), donor.begin() + from, donor.begin() + from + len);
    out.insert(out.end(), bytes->begin() + at + cut, bytes->end());
    *bytes = std::move(out);
  }

  // A length field set to a random word, nudged by a few bytes either
  // way, zeroed, or saturated.
  template <typename Bytes>
  void RewriteLength(Bytes* bytes, const std::vector<std::size_t>& fields) {
    if (fields.empty()) return;
    const std::size_t at = fields[Below(fields.size())];
    if (at + 4 > bytes->size()) return;
    Byte* p = reinterpret_cast<Byte*>(bytes->data()) + at;
    const std::uint32_t old = LoadLE32(p);
    const auto delta = static_cast<std::uint32_t>(1 + Below(16));
    std::uint32_t len = 0;
    switch (Below(5)) {
      case 0:
        len = static_cast<std::uint32_t>(rng_());
        break;
      case 1:
        len = old + delta;
        break;
      case 2:
        len = old - delta;
        break;
      case 3:
        len = 0;
        break;
      default:
        len = 0xFFFFFFFFu;
        break;
    }
    StoreLE32(p, len);
  }

  std::mt19937_64 rng_;
};

}  // namespace tdr::testutil

#endif  // TDR_TESTS_BYTE_MUTATOR_H_

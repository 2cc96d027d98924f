// Socket-framing codec suite, in wal_test's every-truncation style:
// every byte-boundary split of a frame stream must reassemble to the
// identical frames, every truncation must park as kNeedMore (never a
// bogus frame), and every single-bit corruption or seeded multi-byte
// mutation of an encoded frame must yield kError or kNeedMore — never a
// decoded frame. Golden bytes pin the wire format. The decoder is the
// integrity floor under the whole multi-process backend: a stream that
// loses framing must become a hard error, not garbage deliveries.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "byte_mutator.h"
#include "proc/frame.h"

namespace tdr::proc {
namespace {

Frame MakeFrame(std::uint64_t n, std::string payload = {}) {
  Frame f;
  f.kind = FrameKind::kDeliver;
  f.origin = static_cast<std::uint32_t>(n % 5);
  f.dest = static_cast<std::uint32_t>((n + 1) % 5);
  f.pair_seq = n;
  f.time_us = static_cast<std::int64_t>(1000 * n + 7);
  f.copies = static_cast<std::uint32_t>(1 + n % 3);
  f.schedule_fp = 0x9e3779b97f4a7c15ULL * (n + 1);
  f.payload = std::move(payload);
  return f;
}

std::vector<Frame> DecodeAll(FrameDecoder& dec) {
  std::vector<Frame> out;
  Frame f;
  while (dec.Next(&f) == FrameDecoder::Status::kFrame) {
    out.push_back(f);
  }
  return out;
}

TEST(FrameCodecTest, RoundTripsFixedFieldsAndPayload) {
  const Frame sent = MakeFrame(42, "hello frame");
  const std::string wire = EncodeFrameToString(sent);
  EXPECT_EQ(wire.size(),
            kFrameHeaderBytes + kFrameFixedBodyBytes + sent.payload.size());
  FrameDecoder dec;
  dec.Feed(wire.data(), wire.size());
  Frame got;
  ASSERT_EQ(dec.Next(&got), FrameDecoder::Status::kFrame);
  EXPECT_EQ(got, sent);
  EXPECT_EQ(dec.Next(&got), FrameDecoder::Status::kNeedMore);
  EXPECT_FALSE(dec.HasPartial());
}

TEST(FrameCodecTest, RoundTripsEmptyPayloadAndControlKinds) {
  for (FrameKind kind :
       {FrameKind::kDeliver, FrameKind::kConfig, FrameKind::kDrained,
        FrameKind::kProceed, FrameKind::kReport, FrameKind::kError}) {
    Frame sent = MakeFrame(7);
    sent.kind = kind;
    const std::string wire = EncodeFrameToString(sent);
    FrameDecoder dec;
    dec.Feed(wire.data(), wire.size());
    Frame got;
    ASSERT_EQ(dec.Next(&got), FrameDecoder::Status::kFrame);
    EXPECT_EQ(got, sent) << FrameKindName(kind);
  }
}

// Every split point: a 3-frame stream fed as [0, cut) + [cut, end) for
// every cut — header splits, fixed-field splits, payload splits, and
// splits exactly on frame boundaries — must decode identically.
TEST(FrameCodecTest, EverySplitPointReassembles) {
  const std::vector<Frame> sent = {MakeFrame(1, "alpha"), MakeFrame(2),
                                   MakeFrame(3, std::string(100, 'x'))};
  std::string wire;
  for (const Frame& f : sent) EncodeFrame(f, &wire);
  for (std::size_t cut = 0; cut <= wire.size(); ++cut) {
    SCOPED_TRACE("cut=" + std::to_string(cut));
    FrameDecoder dec;
    dec.Feed(wire.data(), cut);
    std::vector<Frame> got = DecodeAll(dec);
    EXPECT_FALSE(dec.failed());
    dec.Feed(wire.data() + cut, wire.size() - cut);
    for (Frame& f : DecodeAll(dec)) got.push_back(std::move(f));
    ASSERT_FALSE(dec.failed()) << dec.error();
    ASSERT_EQ(got.size(), sent.size());
    for (std::size_t i = 0; i < sent.size(); ++i) {
      EXPECT_EQ(got[i], sent[i]) << "frame " << i;
    }
    EXPECT_FALSE(dec.HasPartial());
    EXPECT_EQ(dec.frames_decoded(), sent.size());
  }
}

// One byte at a time — the pathological split — and the reassembly
// counter must report every frame as split-reassembled.
TEST(FrameCodecTest, ByteAtATimeReassembles) {
  const std::vector<Frame> sent = {MakeFrame(1, "drip"), MakeFrame(2, "feed")};
  std::string wire;
  for (const Frame& f : sent) EncodeFrame(f, &wire);
  FrameDecoder dec;
  std::vector<Frame> got;
  for (char byte : wire) {
    dec.Feed(&byte, 1);
    for (Frame& f : DecodeAll(dec)) got.push_back(std::move(f));
    ASSERT_FALSE(dec.failed()) << dec.error();
  }
  ASSERT_EQ(got.size(), sent.size());
  EXPECT_EQ(got[0], sent[0]);
  EXPECT_EQ(got[1], sent[1]);
  EXPECT_EQ(dec.partial_frames(), sent.size());
  EXPECT_EQ(dec.bytes_fed(), wire.size());
}

// Every truncation length: a prefix of a frame is pending data, never
// an error and never a frame — and completing the suffix later yields
// the original.
TEST(FrameCodecTest, EveryTruncationParksThenCompletes) {
  const Frame sent = MakeFrame(9, "truncate me carefully");
  const std::string wire = EncodeFrameToString(sent);
  for (std::size_t keep = 0; keep < wire.size(); ++keep) {
    SCOPED_TRACE("keep=" + std::to_string(keep));
    FrameDecoder dec;
    dec.Feed(wire.data(), keep);
    Frame got;
    EXPECT_EQ(dec.Next(&got), FrameDecoder::Status::kNeedMore);
    EXPECT_FALSE(dec.failed());
    EXPECT_EQ(dec.HasPartial(), keep > 0);
    dec.Feed(wire.data() + keep, wire.size() - keep);
    ASSERT_EQ(dec.Next(&got), FrameDecoder::Status::kFrame);
    EXPECT_EQ(got, sent);
  }
}

// Every single-bit corruption, anywhere in header or body: the decoder
// must never produce a frame from the corrupted bytes. (A length flip
// can legitimately park as kNeedMore — the stream then starves or the
// next bytes fail the CRC — but nothing ever decodes.)
TEST(FrameCodecTest, EveryBitFlipIsRejected) {
  const Frame sent = MakeFrame(5, "integrity");
  const std::string wire = EncodeFrameToString(sent);
  for (std::size_t byte = 0; byte < wire.size(); ++byte) {
    for (int bit = 0; bit < 8; ++bit) {
      std::string bad = wire;
      bad[byte] = static_cast<char>(bad[byte] ^ (1 << bit));
      FrameDecoder dec;
      dec.Feed(bad.data(), bad.size());
      Frame got;
      const FrameDecoder::Status st = dec.Next(&got);
      EXPECT_NE(st, FrameDecoder::Status::kFrame)
          << "byte " << byte << " bit " << bit;
    }
  }
}

// A bit flip in frame 1 of a 2-frame stream must also poison frame 2:
// after lost framing nothing downstream is trustworthy.
TEST(FrameCodecTest, CorruptionPoisonsTheRestOfTheStream) {
  std::string wire;
  EncodeFrame(MakeFrame(1, "first"), &wire);
  const std::size_t second_start = wire.size();
  EncodeFrame(MakeFrame(2, "second"), &wire);
  // Flip one payload bit of the FIRST frame (body corruption, caught
  // by CRC, not by magic).
  std::string bad = wire;
  bad[kFrameHeaderBytes + kFrameFixedBodyBytes] ^= 0x01;
  FrameDecoder dec;
  dec.Feed(bad.data(), bad.size());
  Frame got;
  EXPECT_EQ(dec.Next(&got), FrameDecoder::Status::kError);
  EXPECT_TRUE(dec.failed());
  EXPECT_NE(dec.error().find("CRC"), std::string::npos) << dec.error();
  // Poisoned for good: the intact second frame is unreachable, and
  // feeding more data does not resurrect the stream.
  EXPECT_EQ(dec.Next(&got), FrameDecoder::Status::kError);
  dec.Feed(wire.data() + second_start, wire.size() - second_start);
  EXPECT_EQ(dec.Next(&got), FrameDecoder::Status::kError);
}

TEST(FrameCodecTest, BadMagicIsAHardError) {
  std::string wire = EncodeFrameToString(MakeFrame(1));
  wire[0] = static_cast<char>(wire[0] ^ 0xff);
  FrameDecoder dec;
  dec.Feed(wire.data(), wire.size());
  Frame got;
  EXPECT_EQ(dec.Next(&got), FrameDecoder::Status::kError);
  EXPECT_NE(dec.error().find("magic"), std::string::npos) << dec.error();
}

TEST(FrameCodecTest, OversizedLengthIsAHardError) {
  std::string wire = EncodeFrameToString(MakeFrame(1));
  // Overwrite the little-endian length field with cap + 1.
  const std::uint32_t huge = kMaxFrameBodyBytes + 1;
  for (int i = 0; i < 4; ++i) {
    wire[4 + i] = static_cast<char>((huge >> (8 * i)) & 0xff);
  }
  FrameDecoder dec;
  dec.Feed(wire.data(), wire.size());
  Frame got;
  EXPECT_EQ(dec.Next(&got), FrameDecoder::Status::kError);
  EXPECT_NE(dec.error().find("cap"), std::string::npos) << dec.error();
}

TEST(FrameCodecTest, LengthBelowFixedFieldsIsAHardError) {
  std::string wire = EncodeFrameToString(MakeFrame(1));
  const std::uint32_t tiny = kFrameFixedBodyBytes - 1;
  for (int i = 0; i < 4; ++i) {
    wire[4 + i] = static_cast<char>((tiny >> (8 * i)) & 0xff);
  }
  FrameDecoder dec;
  dec.Feed(wire.data(), wire.size());
  Frame got;
  EXPECT_EQ(dec.Next(&got), FrameDecoder::Status::kError);
  EXPECT_NE(dec.error().find("below fixed"), std::string::npos)
      << dec.error();
}

// The bytes the byte-at-a-time encoder wrote for MakeFrame(42, "hello
// frame"). Every encoder must reproduce them and the decoder must read
// them back: children and parents built apart still share one wire.
constexpr char kGoldenDeliverHex[] =
    "5444524630000000ac378bcc0102000000030000002a0000000000000017a400"
    "00000000000100000087d782612872519368656c6c6f206672616d65";

std::string FromHex(const std::string& hex) {
  std::string out;
  for (std::size_t i = 0; i + 1 < hex.size(); i += 2) {
    out.push_back(static_cast<char>(std::stoul(hex.substr(i, 2), nullptr, 16)));
  }
  return out;
}

TEST(FrameCodecTest, EncoderReproducesGoldenBytes) {
  const Frame sent = MakeFrame(42, "hello frame");
  EXPECT_EQ(EncodeFrameToString(sent), FromHex(kGoldenDeliverHex));
  // Appending after existing bytes leaves them alone.
  std::string out = "xy";
  EncodeFrame(sent, &out);
  EXPECT_EQ(out, "xy" + FromHex(kGoldenDeliverHex));
}

TEST(FrameCodecTest, DecoderReadsGoldenBytes) {
  const std::string wire = FromHex(kGoldenDeliverHex);
  FrameDecoder dec;
  dec.Feed(wire.data(), wire.size());
  Frame got;
  ASSERT_EQ(dec.Next(&got), FrameDecoder::Status::kFrame);
  EXPECT_EQ(got, MakeFrame(42, "hello frame"));
}

// ~4,000 seeded multi-byte mutations of a three-frame stream, fed in
// random windows. The decoder may stop with kNeedMore or kError, but a
// frame it yields must re-encode to exactly the bytes it consumed and
// must be one of the frames sent: no corruption passes magic, length
// and CRC.
TEST(FrameCodecTest, SeededMutationsYieldOnlyIntactFrames) {
  std::vector<Frame> corpus = {MakeFrame(1), MakeFrame(2, "alpha"),
                               MakeFrame(3, std::string(100, 'x'))};
  corpus.push_back(MakeFrame(4, "report"));
  corpus.back().kind = FrameKind::kReport;
  std::vector<std::string> encoded;
  std::string donor;
  for (const Frame& f : corpus) {
    encoded.push_back(EncodeFrameToString(f));
    donor += encoded.back();
  }
  testutil::ByteMutator mutator(0xF4A3E);
  int decoded = 0;
  for (int round = 0; round < 4000; ++round) {
    std::string wire;
    std::vector<std::size_t> length_fields;
    for (int i = 0; i < 3; ++i) {
      length_fields.push_back(wire.size() + 4);
      wire += encoded[mutator.Below(encoded.size())];
    }
    mutator.Mutate(&wire, donor, length_fields);
    FrameDecoder dec;
    std::size_t fed = 0;
    std::size_t consumed = 0;
    Frame got;
    while (fed < wire.size()) {
      const std::size_t n =
          std::min<std::size_t>(1 + mutator.Below(64), wire.size() - fed);
      dec.Feed(wire.data() + fed, n);
      fed += n;
      FrameDecoder::Status st;
      while ((st = dec.Next(&got)) == FrameDecoder::Status::kFrame) {
        const std::string again = EncodeFrameToString(got);
        ASSERT_LE(consumed + again.size(), fed) << "round " << round;
        ASSERT_EQ(wire.compare(consumed, again.size(), again), 0)
            << "round " << round << " offset " << consumed;
        EXPECT_NE(std::find(encoded.begin(), encoded.end(), again),
                  encoded.end())
            << "round " << round << " " << got.ToString();
        consumed += again.size();
        ++decoded;
      }
      if (st == FrameDecoder::Status::kError) break;
    }
  }
  EXPECT_GT(decoded, 1000);
}

TEST(FrameCodecTest, HashBytesIsOrderSensitive) {
  const char a[] = "ab";
  const char b[] = "ba";
  EXPECT_NE(HashBytes(a, 2), HashBytes(b, 2));
  EXPECT_EQ(HashBytes(a, 2), HashBytes(a, 2));
}

}  // namespace
}  // namespace tdr::proc

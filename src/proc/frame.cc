#include "proc/frame.h"

#include <cstring>

#include "util/little_endian.h"
#include "util/logging.h"
#include "wal/crc32c.h"

namespace tdr::proc {

const char* FrameKindName(FrameKind kind) {
  switch (kind) {
    case FrameKind::kDeliver:
      return "deliver";
    case FrameKind::kConfig:
      return "config";
    case FrameKind::kDrained:
      return "drained";
    case FrameKind::kProceed:
      return "proceed";
    case FrameKind::kReport:
      return "report";
    case FrameKind::kError:
      return "error";
  }
  return "?";
}

std::string Frame::ToString() const {
  return StrPrintf(
      "[%s %u->%u seq=%llu t=%lldus copies=%u fp=%llu payload=%zuB]",
      FrameKindName(kind), origin, dest,
      static_cast<unsigned long long>(pair_seq),
      static_cast<long long>(time_us), copies,
      static_cast<unsigned long long>(schedule_fp), payload.size());
}

void EncodeFrame(const Frame& frame, std::string* out) {
  // Size the frame once, write the fixed fields at their offsets, then
  // patch in the length and CRC over the finished body.
  const std::size_t body_len = kFrameFixedBodyBytes + frame.payload.size();
  const std::size_t at = out->size();
  out->resize(at + kFrameHeaderBytes + body_len);
  char* head = out->data() + at;
  char* body = head + kFrameHeaderBytes;
  body[0] = static_cast<char>(frame.kind);
  StoreLE32(body + 1, frame.origin);
  StoreLE32(body + 5, frame.dest);
  StoreLE64(body + 9, frame.pair_seq);
  StoreLE64(body + 17, static_cast<std::uint64_t>(frame.time_us));
  StoreLE32(body + 25, frame.copies);
  StoreLE64(body + 29, frame.schedule_fp);
  std::memcpy(body + kFrameFixedBodyBytes, frame.payload.data(),
              frame.payload.size());
  StoreLE32(head, kFrameMagic);
  StoreLE32(head + 4, static_cast<std::uint32_t>(body_len));
  StoreLE32(head + 8, wal::Crc32c(body, body_len));
}

std::string EncodeFrameToString(const Frame& frame) {
  std::string out;
  EncodeFrame(frame, &out);
  return out;
}

void FrameDecoder::Feed(const void* data, std::size_t size) {
  if (failed_ || size == 0) return;
  bytes_fed_ += size;
  // Compact the consumed prefix before growing; the buffer only ever
  // holds whole undecoded frames plus at most one partial tail.
  if (pos_ > 0) {
    buf_.erase(0, pos_);
    pos_ = 0;
  }
  buf_.append(static_cast<const char*>(data), size);
}

FrameDecoder::Status FrameDecoder::Fail(const std::string& why) {
  failed_ = true;
  error_ = why;
  return Status::kError;
}

FrameDecoder::Status FrameDecoder::Next(Frame* out) {
  if (failed_) return Status::kError;
  const std::size_t avail = buf_.size() - pos_;
  if (avail < kFrameHeaderBytes) {
    pending_partial_ = avail > 0;
    return Status::kNeedMore;
  }
  const char* head = buf_.data() + pos_;
  const std::uint32_t magic = LoadLE32(head);
  if (magic != kFrameMagic) {
    return Fail(StrPrintf("bad frame magic 0x%08x", magic));
  }
  const std::uint32_t len = LoadLE32(head + 4);
  if (len > kMaxFrameBodyBytes) {
    return Fail(StrPrintf("frame body length %u exceeds cap %u", len,
                          kMaxFrameBodyBytes));
  }
  if (len < kFrameFixedBodyBytes) {
    return Fail(StrPrintf("frame body length %u below fixed fields (%zu)",
                          len, kFrameFixedBodyBytes));
  }
  if (avail < kFrameHeaderBytes + len) {
    pending_partial_ = true;
    return Status::kNeedMore;
  }
  const std::uint32_t want_crc = LoadLE32(head + 8);
  const char* body = head + kFrameHeaderBytes;
  const std::uint32_t got_crc = wal::Crc32c(body, len);
  if (want_crc != got_crc) {
    return Fail(StrPrintf("frame CRC mismatch: header 0x%08x body 0x%08x",
                          want_crc, got_crc));
  }
  out->kind = static_cast<FrameKind>(static_cast<unsigned char>(body[0]));
  out->origin = LoadLE32(body + 1);
  out->dest = LoadLE32(body + 5);
  out->pair_seq = LoadLE64(body + 9);
  out->time_us = static_cast<std::int64_t>(LoadLE64(body + 17));
  out->copies = LoadLE32(body + 25);
  out->schedule_fp = LoadLE64(body + 29);
  out->payload.assign(body + kFrameFixedBodyBytes,
                      len - kFrameFixedBodyBytes);
  pos_ += kFrameHeaderBytes + len;
  ++frames_decoded_;
  if (pending_partial_) {
    ++partial_frames_;
    pending_partial_ = false;
  }
  return Status::kFrame;
}

std::uint64_t HashBytes(const void* data, std::size_t size,
                        std::uint64_t seed) {
  std::uint64_t h = seed;
  const unsigned char* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < size; ++i) {
    h ^= p[i];
    h *= 1099511628211ULL;
  }
  return h;
}

}  // namespace tdr::proc

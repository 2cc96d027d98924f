#include "wal/wal_format.h"

#include "util/little_endian.h"
#include "wal/crc32c.h"

namespace tdr::wal {

namespace {

// Payload field offsets (see the layout in wal_format.h).
constexpr std::size_t kLsnAt = 0;
constexpr std::size_t kTxnAt = 8;
constexpr std::size_t kOidAt = 16;
constexpr std::size_t kShardAt = 24;
constexpr std::size_t kOldTsAt = 28;
constexpr std::size_t kNewTsAt = 40;
constexpr std::size_t kKindAt = 52;
// Fixed payload prefix before the value: lsn, txn, oid, shard, two
// timestamps, value kind.
constexpr std::size_t kPayloadPrefix = kKindAt + 1;

}  // namespace

void EncodeSegmentHeader(NodeId node, std::uint32_t segment,
                         std::vector<std::uint8_t>* out) {
  const std::size_t at = out->size();
  out->resize(at + kSegmentHeaderSize);
  std::uint8_t* h = out->data() + at;
  StoreLE64(h, kSegmentMagic);
  StoreLE32(h + 8, node);
  StoreLE32(h + 12, segment);
}

bool CheckSegmentHeader(const std::uint8_t* data, std::size_t size,
                        NodeId node, std::uint32_t segment) {
  if (size < kSegmentHeaderSize) return false;
  return LoadLE64(data) == kSegmentMagic && LoadLE32(data + 8) == node &&
         LoadLE32(data + 12) == segment;
}

void AppendRecord(std::uint64_t lsn, TxnId txn, ObjectId oid, ShardId shard,
                  const Timestamp& old_ts, const Timestamp& new_ts,
                  const Value& value, std::vector<std::uint8_t>* out) {
  // Size the record once, write every field at its fixed offset, then
  // patch in the length and CRC over the finished payload.
  const bool scalar = value.is_scalar();
  const std::size_t items = scalar ? 0 : value.AsList().size();
  const std::size_t payload_len =
      kPayloadPrefix + (scalar ? 8 : 4 + 8 * items);
  const std::size_t header_at = out->size();
  out->resize(header_at + kRecordHeaderSize + payload_len);
  std::uint8_t* header = out->data() + header_at;
  std::uint8_t* p = header + kRecordHeaderSize;
  StoreLE64(p + kLsnAt, lsn);
  StoreLE64(p + kTxnAt, txn);
  StoreLE64(p + kOidAt, oid);
  StoreLE32(p + kShardAt, shard);
  StoreLE64(p + kOldTsAt, old_ts.counter);
  StoreLE32(p + kOldTsAt + 8, old_ts.node);
  StoreLE64(p + kNewTsAt, new_ts.counter);
  StoreLE32(p + kNewTsAt + 8, new_ts.node);
  std::uint8_t* v = p + kPayloadPrefix;
  if (scalar) {
    p[kKindAt] = 0;
    StoreLE64(v, static_cast<std::uint64_t>(value.AsScalar()));
  } else {
    p[kKindAt] = 1;
    StoreLE32(v, static_cast<std::uint32_t>(items));
    v += 4;
    for (std::int64_t item : value.AsList()) {
      StoreLE64(v, static_cast<std::uint64_t>(item));
      v += 8;
    }
  }
  StoreLE32(header, static_cast<std::uint32_t>(payload_len));
  StoreLE32(header + 4, Crc32c(p, payload_len));
}

std::size_t DecodeRecord(const std::uint8_t* data, std::size_t size,
                         WalRecord* out) {
  if (size < kRecordHeaderSize) return 0;
  const std::uint32_t payload_len = LoadLE32(data);
  const std::uint32_t crc = LoadLE32(data + 4);
  if (payload_len < kPayloadPrefix) return 0;  // cannot hold the prefix
  if (size - kRecordHeaderSize < payload_len) return 0;
  const std::uint8_t* p = data + kRecordHeaderSize;
  if (Crc32c(p, payload_len) != crc) return 0;
  out->lsn = LoadLE64(p + kLsnAt);
  out->txn = LoadLE64(p + kTxnAt);
  out->oid = LoadLE64(p + kOidAt);
  out->shard = LoadLE32(p + kShardAt);
  out->old_ts = Timestamp{LoadLE64(p + kOldTsAt), LoadLE32(p + kOldTsAt + 8)};
  out->new_ts = Timestamp{LoadLE64(p + kNewTsAt), LoadLE32(p + kNewTsAt + 8)};
  const std::uint8_t kind = p[kKindAt];
  const std::uint8_t* v = p + kPayloadPrefix;
  const std::size_t value_bytes = payload_len - kPayloadPrefix;
  if (kind == 0) {
    if (value_bytes != 8) return 0;
    out->value = Value(static_cast<std::int64_t>(LoadLE64(v)));
  } else if (kind == 1) {
    if (value_bytes < 4) return 0;
    const std::uint32_t n = LoadLE32(v);
    if (value_bytes != 4 + std::size_t{n} * 8) return 0;
    Value::List list(n);
    for (std::uint32_t i = 0; i < n; ++i) {
      list[i] = static_cast<std::int64_t>(LoadLE64(v + 4 + 8 * i));
    }
    out->value = Value(std::move(list));
  } else {
    return 0;
  }
  return kRecordHeaderSize + payload_len;
}

}  // namespace tdr::wal

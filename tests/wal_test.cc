// Unit suite for the WAL building blocks: the CRC (both paths against
// a bit-at-a-time reference), the record and segment encodings (golden
// bytes, truncations, bit flips, seeded multi-byte mutations through
// the decoder and through recovery), both segment backends, the
// per-node writer's flush/roll machinery, and the GroupCommitter's
// three durability modes driven directly by a simulator clock. Crash
// recovery has its own suite (wal_recovery_test.cc); the cluster-level
// differential checks live in wal_differential_test.cc.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <filesystem>
#include <random>
#include <string>
#include <unistd.h>
#include <utility>
#include <vector>

#include "byte_mutator.h"

#include "sim/simulator.h"
#include "storage/shard_map.h"
#include "wal/crc32c.h"
#include "wal/group_committer.h"
#include "wal/wal.h"
#include "wal/wal_file.h"
#include "wal/wal_format.h"
#include "wal/wal_recovery.h"
#include "wal/wal_set.h"

namespace tdr::wal {
namespace {

// ctest runs a binary's per-test entries and its label-aggregate entry
// concurrently; a per-process prefix keeps their WAL directories apart.
std::string PrivateTempDir() {
  return ::testing::TempDir() + std::to_string(::getpid()) + "_";
}

TEST(Crc32cTest, StandardCheckValue) {
  // The canonical CRC-32C check value over the ASCII digits.
  EXPECT_EQ(Crc32c("123456789", 9), 0xE3069283u);
}

TEST(Crc32cTest, ExtendMatchesOneShot) {
  const char* data = "the dangers of replication";
  const std::size_t n = 26;
  const std::uint32_t whole = Crc32c(data, n);
  for (std::size_t split = 0; split <= n; ++split) {
    std::uint32_t crc = Crc32c(data, split);
    crc = Crc32cExtend(crc, data + split, n - split);
    EXPECT_EQ(crc, whole) << "split at " << split;
  }
}

// Bit-at-a-time CRC-32C: the definition both implementations must
// reproduce.
std::uint32_t ReferenceCrc32c(std::uint32_t crc, const std::uint8_t* p,
                              std::size_t size) {
  crc = ~crc;
  for (std::size_t i = 0; i < size; ++i) {
    crc ^= p[i];
    for (int b = 0; b < 8; ++b) {
      crc = (crc >> 1) ^ (0x82F63B78u & (0u - (crc & 1u)));
    }
  }
  return ~crc;
}

std::vector<std::uint8_t> RandomBytes(std::size_t n, std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::vector<std::uint8_t> out(n);
  for (std::uint8_t& b : out) b = static_cast<std::uint8_t>(rng());
  return out;
}

TEST(Crc32cTest, BothPathsMatchReferenceAtEveryLengthAndAlignment) {
  const std::vector<std::uint8_t> bytes = RandomBytes(256 + 8, 17);
  for (std::size_t align = 0; align < 8; ++align) {
    for (std::size_t len = 0; len <= 256; ++len) {
      const std::uint8_t* p = bytes.data() + align;
      const std::uint32_t want = ReferenceCrc32c(0, p, len);
      ASSERT_EQ(Crc32c(p, len), want) << "align " << align << " len " << len;
      ASSERT_EQ(detail::Crc32cExtendPortable(0, p, len), want)
          << "align " << align << " len " << len;
    }
  }
}

TEST(Crc32cTest, BothPathsMatchReferenceOver64KiBAndSplitChains) {
  const std::vector<std::uint8_t> bytes = RandomBytes(64 << 10, 29);
  const std::uint32_t want = ReferenceCrc32c(0, bytes.data(), bytes.size());
  EXPECT_EQ(Crc32c(bytes.data(), bytes.size()), want);
  EXPECT_EQ(detail::Crc32cExtendPortable(0, bytes.data(), bytes.size()), want);
  // Chains of random piece sizes, each piece extended by a randomly
  // chosen path: the two paths must interoperate mid-stream.
  std::mt19937_64 rng(31);
  for (int chain = 0; chain < 64; ++chain) {
    std::uint32_t crc = 0;
    std::size_t at = 0;
    while (at < bytes.size()) {
      const std::size_t piece =
          std::min<std::size_t>(rng() % 3000, bytes.size() - at);
      crc = (rng() & 1)
                ? Crc32cExtend(crc, bytes.data() + at, piece)
                : detail::Crc32cExtendPortable(crc, bytes.data() + at, piece);
      at += piece;
    }
    ASSERT_EQ(crc, want) << "chain " << chain;
  }
}

WalRecord MakeScalarRecord() {
  WalRecord r;
  r.lsn = 7;
  r.txn = 1234;
  r.oid = 99;
  r.shard = 3;
  r.old_ts = Timestamp{41, 2};
  r.new_ts = Timestamp{42, 1};
  r.value = Value(-5);
  return r;
}

WalRecord MakeListRecord() {
  WalRecord r = MakeScalarRecord();
  r.value = Value(Value::List{-3, 0, 8, 1LL << 40});
  return r;
}

std::vector<std::uint8_t> Encode(const WalRecord& r) {
  std::vector<std::uint8_t> buf;
  AppendRecord(r.lsn, r.txn, r.oid, r.shard, r.old_ts, r.new_ts, r.value,
               &buf);
  return buf;
}

void ExpectEqualRecords(const WalRecord& a, const WalRecord& b) {
  EXPECT_EQ(a.lsn, b.lsn);
  EXPECT_EQ(a.txn, b.txn);
  EXPECT_EQ(a.oid, b.oid);
  EXPECT_EQ(a.shard, b.shard);
  EXPECT_EQ(a.old_ts, b.old_ts);
  EXPECT_EQ(a.new_ts, b.new_ts);
  EXPECT_TRUE(a.value == b.value);
}

TEST(WalFormatTest, ScalarRoundtrip) {
  const WalRecord in = MakeScalarRecord();
  const std::vector<std::uint8_t> buf = Encode(in);
  WalRecord out;
  EXPECT_EQ(DecodeRecord(buf.data(), buf.size(), &out), buf.size());
  ExpectEqualRecords(in, out);
}

TEST(WalFormatTest, ListRoundtrip) {
  const WalRecord in = MakeListRecord();
  const std::vector<std::uint8_t> buf = Encode(in);
  WalRecord out;
  EXPECT_EQ(DecodeRecord(buf.data(), buf.size(), &out), buf.size());
  ExpectEqualRecords(in, out);
}

std::vector<std::uint8_t> FromHex(const std::string& hex) {
  std::vector<std::uint8_t> out;
  for (std::size_t i = 0; i + 1 < hex.size(); i += 2) {
    out.push_back(
        static_cast<std::uint8_t>(std::stoul(hex.substr(i, 2), nullptr, 16)));
  }
  return out;
}

// The bytes the byte-at-a-time encoder wrote for MakeScalarRecord() and
// for its list twin. Logs on disk hold exactly these layouts, so every
// encoder must reproduce them and every decoder must read them back.
constexpr char kGoldenScalarHex[] =
    "3d000000a4b63e870700000000000000d2040000000000006300000000000000"
    "030000002900000000000000020000002a000000000000000100000000fbffff"
    "ffffffffff";
constexpr char kGoldenListHex[] =
    "5900000091d2ecd30700000000000000d2040000000000006300000000000000"
    "030000002900000000000000020000002a000000000000000100000001040000"
    "00fdffffffffffffff0000000000000000080000000000000000000000000100"
    "00";

TEST(WalFormatTest, EncoderReproducesGoldenBytes) {
  EXPECT_EQ(Encode(MakeScalarRecord()), FromHex(kGoldenScalarHex));
  EXPECT_EQ(Encode(MakeListRecord()), FromHex(kGoldenListHex));
}

TEST(WalFormatTest, DecoderReadsGoldenBytes) {
  for (const auto& [hex, want] :
       {std::pair{kGoldenScalarHex, MakeScalarRecord()},
        std::pair{kGoldenListHex, MakeListRecord()}}) {
    const std::vector<std::uint8_t> buf = FromHex(hex);
    WalRecord out;
    ASSERT_EQ(DecodeRecord(buf.data(), buf.size(), &out), buf.size());
    ExpectEqualRecords(want, out);
  }
}

TEST(WalFormatTest, BackToBackRecordsDecodeInOrder) {
  WalRecord a = MakeScalarRecord();
  WalRecord b = MakeScalarRecord();
  b.lsn = 8;
  b.value = Value(Value::List{1, 2});
  std::vector<std::uint8_t> buf = Encode(a);
  AppendRecord(b.lsn, b.txn, b.oid, b.shard, b.old_ts, b.new_ts, b.value,
               &buf);
  WalRecord out;
  const std::size_t first = DecodeRecord(buf.data(), buf.size(), &out);
  ASSERT_GT(first, 0u);
  ExpectEqualRecords(a, out);
  const std::size_t second =
      DecodeRecord(buf.data() + first, buf.size() - first, &out);
  EXPECT_EQ(first + second, buf.size());
  ExpectEqualRecords(b, out);
}

TEST(WalFormatTest, EveryTruncationIsRejected) {
  const std::vector<std::uint8_t> buf = Encode(MakeScalarRecord());
  WalRecord out;
  for (std::size_t len = 0; len < buf.size(); ++len) {
    EXPECT_EQ(DecodeRecord(buf.data(), len, &out), 0u) << "length " << len;
  }
}

TEST(WalFormatTest, EverySingleBitFlipIsRejected) {
  const std::vector<std::uint8_t> pristine = Encode(MakeScalarRecord());
  WalRecord out;
  for (std::size_t i = 0; i < pristine.size(); ++i) {
    std::vector<std::uint8_t> buf = pristine;
    buf[i] ^= 0x40;
    // Flipping a header length byte may turn the record into a
    // "truncated" one; either way the decode must fail.
    EXPECT_EQ(DecodeRecord(buf.data(), buf.size(), &out), 0u)
        << "flipped byte " << i;
  }
}

// Records of every value shape the log holds: scalars, an empty list,
// short and long lists. Record k carries lsn k + 1.
std::vector<WalRecord> MutationCorpus() {
  std::vector<WalRecord> corpus;
  for (std::uint64_t k = 0; k < 6; ++k) {
    WalRecord r = MakeScalarRecord();
    r.lsn = k + 1;
    r.txn = 1000 + 7 * k;
    r.oid = 3 * k;
    if (k % 2 == 1) {
      Value::List list;
      for (std::uint64_t i = 0; i < 3 * (k - 1); ++i) {
        list.push_back(static_cast<std::int64_t>(i * 1000003) - 5);
      }
      r.value = Value(std::move(list));
    } else {
      r.value = Value(static_cast<std::int64_t>(k) - 2);
    }
    corpus.push_back(r);
  }
  return corpus;
}

// ~4,000 seeded multi-byte mutations of a two-record stream. The
// decoder may reject or accept, but an accepted record must re-encode
// to exactly the bytes it consumed, and it must be an original record:
// no corruption passes the length and CRC checks.
TEST(WalFormatTest, SeededMutationsAcceptOnlyIntactRecords) {
  const std::vector<WalRecord> corpus = MutationCorpus();
  std::vector<std::vector<std::uint8_t>> encoded;
  std::vector<std::uint8_t> donor;
  for (const WalRecord& r : corpus) {
    encoded.push_back(Encode(r));
    donor.insert(donor.end(), encoded.back().begin(), encoded.back().end());
  }
  testutil::ByteMutator mutator(0xC0DEC);
  int accepted = 0;
  for (int round = 0; round < 4000; ++round) {
    const std::size_t a = mutator.Below(corpus.size());
    const std::size_t b = mutator.Below(corpus.size());
    std::vector<std::uint8_t> buf = encoded[a];
    buf.insert(buf.end(), encoded[b].begin(), encoded[b].end());
    mutator.Mutate(&buf, donor, {0, encoded[a].size()});
    std::size_t offset = 0;
    WalRecord out;
    while (offset < buf.size()) {
      const std::size_t consumed =
          DecodeRecord(buf.data() + offset, buf.size() - offset, &out);
      if (consumed == 0) break;
      ASSERT_LE(consumed, buf.size() - offset) << "round " << round;
      const std::vector<std::uint8_t> again = Encode(out);
      ASSERT_EQ(again.size(), consumed) << "round " << round;
      ASSERT_TRUE(std::equal(again.begin(), again.end(), buf.begin() + offset))
          << "round " << round << " offset " << offset;
      ASSERT_GE(out.lsn, 1u);
      ASSERT_LE(out.lsn, corpus.size());
      EXPECT_EQ(again, encoded[out.lsn - 1]) << "round " << round;
      offset += consumed;
      ++accepted;
    }
  }
  // Untouched leading records still decode: the battery is not all
  // rejections.
  EXPECT_GT(accepted, 1000);
}

// ~2,000 seeded mutations of a whole segment, replayed by WalRecovery:
// it must replay an intact prefix of the log, in LSN order, cut the
// segment right after it, and find a clean log on a second pass.
TEST(WalRecoveryMutationTest, SeededSegmentMutationsReplayAnIntactPrefix) {
  const std::vector<WalRecord> corpus = MutationCorpus();
  std::vector<std::uint8_t> segment;
  EncodeSegmentHeader(/*node=*/0, /*segment=*/0, &segment);
  std::vector<std::size_t> length_fields;
  for (const WalRecord& r : corpus) {
    length_fields.push_back(segment.size());
    const std::vector<std::uint8_t> rec = Encode(r);
    segment.insert(segment.end(), rec.begin(), rec.end());
  }
  testutil::ByteMutator mutator(0x5E6);
  for (int round = 0; round < 2000; ++round) {
    MemWalBackend backend(1);
    backend.Create(0, 0);
    std::vector<std::uint8_t>* bytes = backend.SegmentBytes(0, 0);
    *bytes = segment;
    mutator.Mutate(bytes, segment, length_fields);
    const std::vector<std::uint8_t> mutated = *bytes;
    std::size_t offset = kSegmentHeaderSize;
    std::uint64_t replayed = 0;
    WalRecovery recovery(&backend);
    const RecoveryResult result =
        recovery.Recover(0, [&](const WalRecord& rec) {
          const std::vector<std::uint8_t> again = Encode(rec);
          ASSERT_LE(offset + again.size(), mutated.size());
          ASSERT_TRUE(std::equal(again.begin(), again.end(),
                                 mutated.begin() + offset))
              << "round " << round << " offset " << offset;
          ASSERT_LT(replayed, corpus.size());
          EXPECT_EQ(again, Encode(corpus[replayed])) << "round " << round;
          offset += again.size();
          ++replayed;
        });
    ASSERT_EQ(result.records_replayed, replayed) << "round " << round;
    if (result.torn_tail) {
      const std::size_t kept = backend.SegmentBytes(0, 0)->size();
      ASSERT_TRUE(kept == 0 || kept == offset) << "round " << round;
    } else if (!mutated.empty()) {  // an empty segment is a clean log
      ASSERT_EQ(offset, mutated.size()) << "round " << round;
    }
    const RecoveryResult again = recovery.Recover(0, [](const WalRecord&) {});
    EXPECT_FALSE(again.torn_tail) << "round " << round;
    EXPECT_EQ(again.records_replayed, replayed) << "round " << round;
  }
}

TEST(WalFormatTest, SegmentHeaderRoundtrip) {
  std::vector<std::uint8_t> buf;
  EncodeSegmentHeader(/*node=*/2, /*segment=*/5, &buf);
  ASSERT_EQ(buf.size(), kSegmentHeaderSize);
  EXPECT_TRUE(CheckSegmentHeader(buf.data(), buf.size(), 2, 5));
  EXPECT_FALSE(CheckSegmentHeader(buf.data(), buf.size(), 1, 5));
  EXPECT_FALSE(CheckSegmentHeader(buf.data(), buf.size(), 2, 4));
  EXPECT_FALSE(CheckSegmentHeader(buf.data(), buf.size() - 1, 2, 5));
  buf[0] ^= 0xFF;  // bad magic
  EXPECT_FALSE(CheckSegmentHeader(buf.data(), buf.size(), 2, 5));
}

template <typename MakeBackend>
void BackendRoundtrip(MakeBackend make) {
  auto backend = make();
  EXPECT_EQ(backend->SegmentCount(0), 0u);
  {
    std::unique_ptr<WalFile> f = backend->Create(0, 0);
    const std::uint8_t bytes[] = {1, 2, 3, 4, 5, 6};
    f->Append(bytes, 4);
    f->Sync();
    f->Append(bytes + 4, 2);
    EXPECT_EQ(f->size(), 6u);
    EXPECT_EQ(f->synced_size(), 4u);
  }
  EXPECT_EQ(backend->SegmentCount(0), 1u);
  EXPECT_EQ(backend->SegmentCount(1), 0u);
  std::vector<std::uint8_t> out;
  ASSERT_TRUE(backend->ReadSegment(0, 0, &out));
  EXPECT_EQ(out, (std::vector<std::uint8_t>{1, 2, 3, 4, 5, 6}));
  // The torn-tail cut: drop the unsynced suffix.
  backend->TruncateSegment(0, 0, 4);
  ASSERT_TRUE(backend->ReadSegment(0, 0, &out));
  EXPECT_EQ(out, (std::vector<std::uint8_t>{1, 2, 3, 4}));
  // Truncating longer than the file is a no-op.
  backend->TruncateSegment(0, 0, 100);
  ASSERT_TRUE(backend->ReadSegment(0, 0, &out));
  EXPECT_EQ(out.size(), 4u);
  EXPECT_FALSE(backend->ReadSegment(0, 1, &out));
}

TEST(MemWalBackendTest, AppendSyncReadTruncate) {
  BackendRoundtrip(
      [] { return std::make_unique<MemWalBackend>(/*num_nodes=*/2); });
}

TEST(FileWalBackendTest, AppendSyncReadTruncate) {
  const std::string dir = PrivateTempDir() + "tdr_wal_backend_test";
  std::filesystem::remove_all(dir);
  BackendRoundtrip([&dir] {
    return std::make_unique<FileWalBackend>(dir, /*num_nodes=*/2);
  });
}

TEST(FileWalBackendTest, SegmentsSurviveBackendTeardown) {
  const std::string dir = PrivateTempDir() + "tdr_wal_reopen_test";
  std::filesystem::remove_all(dir);
  {
    FileWalBackend backend(dir, 1);
    std::unique_ptr<WalFile> f = backend.Create(0, 0);
    const std::uint8_t bytes[] = {9, 8, 7};
    f->Append(bytes, 3);
    f->Sync();
  }
  // A fresh backend over the same directory — the recovery scenario.
  FileWalBackend backend(dir, 1);
  EXPECT_EQ(backend.SegmentCount(0), 1u);
  std::vector<std::uint8_t> out;
  ASSERT_TRUE(backend.ReadSegment(0, 0, &out));
  EXPECT_EQ(out, (std::vector<std::uint8_t>{9, 8, 7}));
}

// Review regression: a fresh cluster handed a wal_dir that still holds
// a previous cluster's segments must not stack its LSN-1 log on top of
// them — the first recovery would replay the stale records into the
// store and then discard the new cluster's entire durable log as a
// torn tail (LSN 1 where the stale log's continuation was expected).
TEST(WalSetTest, FreshWalSetOnAReusedDirStartsACleanLog) {
  const std::string dir = PrivateTempDir() + "tdr_wal_reused_dir_test";
  std::filesystem::remove_all(dir);
  {
    // A previous cluster's log: three durable records in segment 0.
    FileWalBackend stale(dir, 1);
    Wal wal(0, &stale, Wal::Options{});
    wal.Open(1);
    for (std::uint64_t i = 1; i <= 3; ++i) {
      wal.Append(i, i, 0, Timestamp{i - 1, 0}, Timestamp{i, 0},
                 Value(static_cast<std::int64_t>(i)));
      wal.CompleteFlush(wal.BeginFlush());
    }
  }
  sim::Simulator sim;
  ShardMap shards(/*db_size=*/8, /*num_shards=*/1);
  WalSet::Options opts;
  opts.mode = DurabilityMode::kCommit;
  opts.wal_dir = dir;
  WalSet wals(&sim, /*num_nodes=*/1, &shards, opts, Rng(1, 2), nullptr);
  // The stale segments are gone: the new writer opened segment 0.
  EXPECT_EQ(wals.wal(0)->segment(), 0u);
  EXPECT_EQ(wals.backend()->SegmentCount(0), 1u);
  // Recovery of the fresh (record-free) log replays nothing.
  WalRecovery recovery(wals.backend());
  const RecoveryResult result = recovery.Recover(0, [](const WalRecord&) {
    ADD_FAILURE() << "stale record replayed into a fresh cluster";
  });
  EXPECT_EQ(result.records_replayed, 0u);
  EXPECT_EQ(result.next_lsn, 1u);
  std::filesystem::remove_all(dir);
}

TEST(WalWriterTest, FlushAdvancesTheDurableLine) {
  MemWalBackend backend(1);
  Wal wal(0, &backend, Wal::Options{});
  wal.Open(/*next_lsn=*/1);
  EXPECT_EQ(wal.appended_lsn(), 0u);
  EXPECT_EQ(wal.Append(1, 10, 0, Timestamp::Zero(), Timestamp{1, 0},
                       Value(1)),
            1u);
  EXPECT_EQ(wal.Append(1, 11, 0, Timestamp::Zero(), Timestamp{2, 0},
                       Value(2)),
            2u);
  EXPECT_EQ(wal.pending_records(), 2u);
  EXPECT_EQ(wal.durable_lsn(), 0u);
  const std::uint64_t target = wal.BeginFlush();
  EXPECT_EQ(target, 2u);
  EXPECT_EQ(wal.pending_records(), 0u);
  EXPECT_EQ(wal.durable_lsn(), 0u);  // written, not yet synced
  EXPECT_GT(wal.file_size(), wal.synced_size());
  wal.CompleteFlush(target);
  EXPECT_EQ(wal.durable_lsn(), 2u);
  EXPECT_EQ(wal.file_size(), wal.synced_size());
}

TEST(WalWriterTest, EmptyFlushIsASyncBarrier) {
  MemWalBackend backend(1);
  Wal wal(0, &backend, Wal::Options{});
  wal.Open(1);
  wal.Append(1, 10, 0, Timestamp::Zero(), Timestamp{1, 0}, Value(1));
  wal.CompleteFlush(wal.BeginFlush());
  const std::uint64_t size = wal.file_size();
  const std::uint64_t target = wal.BeginFlush();  // nothing pending
  EXPECT_EQ(target, 1u);
  wal.CompleteFlush(target);
  EXPECT_EQ(wal.file_size(), size);
  EXPECT_EQ(wal.durable_lsn(), 1u);
}

TEST(WalWriterTest, RollsSegmentsAtTheCap) {
  MemWalBackend backend(1);
  Wal::Options opts;
  opts.segment_bytes = 256;  // a few records per segment
  Wal wal(0, &backend, opts);
  wal.Open(1);
  for (std::uint64_t i = 1; i <= 32; ++i) {
    wal.Append(i, i, 0, Timestamp::Zero(),
               Timestamp{i, 0}, Value(static_cast<std::int64_t>(i)));
    wal.CompleteFlush(wal.BeginFlush());
  }
  EXPECT_GT(backend.SegmentCount(0), 2u);
  EXPECT_EQ(wal.segment(), backend.SegmentCount(0) - 1);
  // The roll invariant: every non-final segment ended fully synced (a
  // segment is rolled only between flushes), so only the newest
  // segment can ever be torn by a crash.
  for (std::uint32_t s = 0; s + 1 < backend.SegmentCount(0); ++s) {
    std::vector<std::uint8_t> bytes;
    ASSERT_TRUE(backend.ReadSegment(0, s, &bytes));
    EXPECT_GT(bytes.size(), kSegmentHeaderSize) << "segment " << s;
  }
}

// -- GroupCommitter ---------------------------------------------------

struct CommitterRig {
  explicit CommitterRig(GroupCommitter::Options opts)
      : backend(1), wal(0, &backend, Wal::Options{}),
        committer(&sim, 0, &wal, opts, &metrics) {
    wal.Open(1);
  }

  std::uint64_t Append() {
    const std::uint64_t lsn =
        wal.Append(1, 10, 0, Timestamp::Zero(),
                   Timestamp{lsn_hint_++, 0}, Value(1));
    committer.NotifyAppend();
    return lsn;
  }

  void Request(std::vector<SimTime>* done_at) {
    committer.RequestDurability(
        [this, done_at]() { done_at->push_back(sim.Now()); });
  }

  sim::Simulator sim;
  MemWalBackend backend;
  Wal wal;
  WalMetrics metrics;  // unregistered handles: all no-ops
  GroupCommitter committer;
  std::uint64_t lsn_hint_ = 1;
};

GroupCommitter::Options Opts(DurabilityMode mode) {
  GroupCommitter::Options o;
  o.mode = mode;
  o.flush_latency = SimTime::Micros(500);
  o.group_window = SimTime::Micros(250);
  o.group_max_records = 64;
  return o;
}

TEST(GroupCommitterTest, CommitModeSerializesOneFlushPerWaiter) {
  CommitterRig rig(Opts(DurabilityMode::kCommit));
  std::vector<SimTime> done;
  for (int i = 0; i < 3; ++i) {
    rig.Append();
    rig.Request(&done);
  }
  rig.sim.Run();
  // One serialized flush per commit: completions at 1x, 2x, 3x the
  // flush latency. Records 2 and 3 ride flush #2's bytes and flush #3
  // is a pure sync barrier, but each waiter pays for its own fsync.
  ASSERT_EQ(done.size(), 3u);
  EXPECT_EQ(done[0], SimTime::Micros(500));
  EXPECT_EQ(done[1], SimTime::Micros(1000));
  EXPECT_EQ(done[2], SimTime::Micros(1500));
  EXPECT_EQ(rig.wal.durable_lsn(), 3u);
}

TEST(GroupCommitterTest, GroupModeCompletesTheWholeBatchTogether) {
  CommitterRig rig(Opts(DurabilityMode::kGroup));
  std::vector<SimTime> done;
  for (int i = 0; i < 3; ++i) {
    rig.Append();
    rig.Request(&done);
  }
  rig.sim.Run();
  // One flush covers all three: window fires at 250us, sync lands at
  // 750us, every waiter completes at the same instant.
  ASSERT_EQ(done.size(), 3u);
  EXPECT_EQ(done[0], SimTime::Micros(750));
  EXPECT_EQ(done[1], SimTime::Micros(750));
  EXPECT_EQ(done[2], SimTime::Micros(750));
  EXPECT_EQ(rig.wal.durable_lsn(), 3u);
}

TEST(GroupCommitterTest, GroupModeSizeCapSkipsTheWindow) {
  GroupCommitter::Options opts = Opts(DurabilityMode::kGroup);
  opts.group_max_records = 2;
  CommitterRig rig(opts);
  std::vector<SimTime> done;
  rig.Append();
  rig.Request(&done);
  rig.Append();
  rig.Request(&done);  // second record hits the cap: flush NOW
  rig.sim.Run();
  ASSERT_EQ(done.size(), 2u);
  EXPECT_EQ(done[0], SimTime::Micros(500));
  EXPECT_EQ(done[1], SimTime::Micros(500));
}

TEST(GroupCommitterTest, WindowFlushesAppendsWithNoWaiter) {
  // Replica-apply writes are logged without a commit waiting on them;
  // the window must still make them durable in bounded time.
  CommitterRig rig(Opts(DurabilityMode::kGroup));
  rig.Append();
  rig.sim.Run();
  EXPECT_EQ(rig.wal.durable_lsn(), 1u);
  EXPECT_EQ(rig.sim.Now(), SimTime::Micros(750));
}

TEST(GroupCommitterTest, BackToBackBatchesRestartTheWindow) {
  CommitterRig rig(Opts(DurabilityMode::kGroup));
  std::vector<SimTime> done;
  rig.Append();
  rig.Request(&done);
  // Second commit arrives while the first flush is in flight: it parks
  // and rides the NEXT flush, which starts as soon as the first lands.
  rig.sim.ScheduleAt(SimTime::Micros(400), [&rig, &done]() {
    rig.Append();
    rig.Request(&done);
  });
  rig.sim.Run();
  ASSERT_EQ(done.size(), 2u);
  EXPECT_EQ(done[0], SimTime::Micros(750));
  EXPECT_EQ(done[1], SimTime::Micros(1250));  // 750 + another 500us sync
}

TEST(GroupCommitterTest, CrashVoidsWaitersAndInFlightFlush) {
  CommitterRig rig(Opts(DurabilityMode::kCommit));
  std::vector<SimTime> done;
  rig.Append();
  rig.Request(&done);  // flush starts at t=0, would land at 500us
  rig.sim.ScheduleAt(SimTime::Micros(100), [&rig]() {
    rig.committer.Crash();
    rig.wal.DropPending();
    rig.wal.CloseForCrash();
  });
  rig.sim.Run();
  // The waiter fired (void, at crash time — commits never leak locks)…
  ASSERT_EQ(done.size(), 1u);
  EXPECT_EQ(done[0], SimTime::Micros(100));
  // …and the in-flight completion was voided by the epoch bump: the
  // durable line never moved.
  EXPECT_EQ(rig.wal.durable_lsn(), 0u);
  EXPECT_TRUE(rig.committer.crashed());
}

TEST(GroupCommitterTest, ResetRevivesTheCommitter) {
  CommitterRig rig(Opts(DurabilityMode::kGroup));
  std::vector<SimTime> done;
  rig.Append();
  rig.Request(&done);
  rig.sim.ScheduleAt(SimTime::Micros(100), [&rig]() {
    rig.committer.Crash();
    rig.wal.DropPending();
    rig.wal.CloseForCrash();
  });
  rig.sim.ScheduleAt(SimTime::Micros(1000), [&rig]() {
    rig.wal.Open(/*next_lsn=*/1);
    rig.committer.Reset();
  });
  rig.sim.ScheduleAt(SimTime::Micros(2000), [&rig, &done]() {
    rig.Append();
    rig.Request(&done);
  });
  rig.sim.Run();
  ASSERT_EQ(done.size(), 2u);
  EXPECT_EQ(done[0], SimTime::Micros(100));   // voided by the crash
  EXPECT_EQ(done[1], SimTime::Micros(2750));  // real, after revival
  EXPECT_EQ(rig.wal.durable_lsn(), 1u);
}

}  // namespace
}  // namespace tdr::wal

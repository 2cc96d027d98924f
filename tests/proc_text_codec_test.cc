// The two line-oriented text codecs of the multi-process backend: the
// NodeReport a child sends back in its kReport frame and the SimConfig
// payload of the kConfig frame. Both are decoders of bytes that crossed
// a process boundary, so they must reject anything they would not have
// written — trailing bytes after a number, a sign, a value wider than
// its field — and whatever they do accept must survive a re-encode:
// Parse(Serialize(Parse(x))) equals Parse(x). Hand-written cases pin
// each rejection; seeded tests/byte_mutator.h rounds cover the rest.

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "bench/proc_harness.h"
#include "byte_mutator.h"
#include "proc/process_coordinator.h"

namespace tdr {
namespace {

using bench::ParseSimConfig;
using bench::SerializeSimConfig;
using bench::SimConfig;
using proc::NodeReport;

NodeReport SampleReport(std::uint32_t node) {
  NodeReport r;
  r.node = node;
  r.state_digest = 0x9e3779b97f4a7c15ULL + node;
  r.matrix_fp = 1234567890123ULL;
  r.metrics_fp = 42;
  r.plan_fp = 7;
  r.committed = 4821;
  r.invariant_violations = 0;
  r.owned_shard_digests = {11, 0xFFFFFFFFFFFFFFFFULL, 33};
  r.counters = {{"proc.bytes_sent", 90210}, {"proc.frames_sent", 377},
                {"bridge:verified", 5}};
  return r;
}

bool SameReport(const NodeReport& a, const NodeReport& b) {
  return a.node == b.node && a.state_digest == b.state_digest &&
         a.matrix_fp == b.matrix_fp && a.metrics_fp == b.metrics_fp &&
         a.plan_fp == b.plan_fp && a.committed == b.committed &&
         a.invariant_violations == b.invariant_violations &&
         a.owned_shard_digests == b.owned_shard_digests &&
         a.counters == b.counters;
}

bool ParsesReport(const std::string& text) {
  NodeReport r;
  std::string error;
  return NodeReport::Parse(text, &r, &error);
}

TEST(NodeReportCodecTest, RoundTripsEveryField) {
  const NodeReport sent = SampleReport(3);
  NodeReport got;
  std::string error;
  ASSERT_TRUE(NodeReport::Parse(sent.Serialize(), &got, &error)) << error;
  EXPECT_TRUE(SameReport(got, sent));
}

TEST(NodeReportCodecTest, RejectsTrailingBytesAfterShardAndCounterValues) {
  EXPECT_TRUE(ParsesReport("shards=1\nshard=0:17\n"));
  EXPECT_FALSE(ParsesReport("shards=1\nshard=0:xyz\n"));
  EXPECT_FALSE(ParsesReport("shards=1\nshard=0:17xyz\n"));
  EXPECT_FALSE(ParsesReport("shards=1\nshard=0x:17\n"));
  EXPECT_FALSE(ParsesReport("shards=1\nshard=0:17:18\n"));
  EXPECT_FALSE(ParsesReport("shards=1\nshard=0:\n"));
  EXPECT_TRUE(ParsesReport("counter=a:b:9\n"));
  EXPECT_FALSE(ParsesReport("counter=frames:9x\n"));
  EXPECT_FALSE(ParsesReport("counter=frames:xyz\n"));
  EXPECT_FALSE(ParsesReport("counter=frames:\n"));
}

TEST(NodeReportCodecTest, RejectsNodeIdsWiderThan32Bits) {
  NodeReport r;
  std::string error;
  ASSERT_TRUE(NodeReport::Parse("node=4294967295\n", &r, &error)) << error;
  EXPECT_EQ(r.node, 4294967295u);
  EXPECT_FALSE(ParsesReport("node=4294967296\n"));
  EXPECT_FALSE(ParsesReport("node=18446744073709551616\n"));
  EXPECT_FALSE(ParsesReport("committed=18446744073709551616\n"));
}

TEST(NodeReportCodecTest, RejectsSignsAndBlanks) {
  EXPECT_FALSE(ParsesReport("committed=-1\n"));
  EXPECT_FALSE(ParsesReport("committed=+1\n"));
  EXPECT_FALSE(ParsesReport("committed= 1\n"));
  EXPECT_FALSE(ParsesReport("committed=1 \n"));
  EXPECT_FALSE(ParsesReport("committed=\n"));
  EXPECT_FALSE(ParsesReport("shards=1\nshard=0:-1\n"));
  EXPECT_FALSE(ParsesReport("shards=1\nshard=-0:1\n"));
  EXPECT_FALSE(ParsesReport("counter=frames:-1\n"));
}

TEST(NodeReportCodecTest, SeededMutationsRoundTripWhenAccepted) {
  const std::string base = SampleReport(2).Serialize();
  const std::string donor = SampleReport(9).Serialize();
  testutil::ByteMutator mutator(0x5EED0A);
  int accepted = 0;
  for (int round = 0; round < 2000; ++round) {
    std::string text = base;
    mutator.Mutate(&text, donor, {});
    NodeReport first;
    std::string error;
    if (!NodeReport::Parse(text, &first, &error)) continue;
    ++accepted;
    NodeReport second;
    ASSERT_TRUE(NodeReport::Parse(first.Serialize(), &second, &error))
        << "round " << round << ": " << error;
    EXPECT_TRUE(SameReport(first, second)) << "round " << round;
  }
  EXPECT_GT(accepted, 100);
}

SimConfig SampleConfig() {
  SimConfig c;
  c.kind = bench::SchemeKind::kLazyGroup;
  c.nodes = 4;
  c.db_size = 10000;
  c.tps = 120;
  c.action_time = 0.005;
  c.sim_seconds = 12.5;
  c.seed = 0xDEADBEEFULL;
  c.poisson_arrivals = false;
  c.num_shards = 8;
  c.batch_flush_window = 0.05;
  c.batch_max_updates = 64;
  c.hot_fraction = 1.0 / 3.0;
  c.hot_shards = 2;
  c.fault_drop_probability = 0.01;
  c.fault_crash_cycle = true;
  c.durability = DurabilityMode::kGroup;
  c.wal_dir = "/tmp/wal:dir=x";
  c.wal_fsync = true;
  c.backend = RuntimeBackend::kThreads;
  c.drain = true;
  return c;
}

// SerializeSimConfig writes every field it carries exactly (%.17g
// doubles), so equal serializations mean equal configs.
std::string ParsedForm(const std::string& text) {
  SimConfig c;
  std::string error;
  if (!ParseSimConfig(text, &c, &error)) return "rejected: " + error;
  return SerializeSimConfig(c);
}

TEST(SimConfigCodecTest, RoundTripsEveryField) {
  const std::string text = SerializeSimConfig(SampleConfig());
  EXPECT_EQ(ParsedForm(text), text);
  SimConfig got;
  std::string error;
  ASSERT_TRUE(ParseSimConfig(text, &got, &error)) << error;
  EXPECT_FALSE(got.poisson_arrivals);
  EXPECT_TRUE(got.wal_fsync);
  std::string nul_dir = SerializeSimConfig(SampleConfig());
  nul_dir.insert(nul_dir.find("wal_dir=") + 9, 1, '\0');
  EXPECT_EQ(ParsedForm(nul_dir), nul_dir);
}

TEST(SimConfigCodecTest, RejectsMalformedValues) {
  const std::string v = "version=2\n";
  EXPECT_EQ(ParsedForm(v + "nodes=5\n").rfind("rejected", 0),
            std::string::npos);
  for (const char* bad :
       {"nodes=1.5", "nodes=-1", "nodes=1e3", "nodes= 4", "nodes=4x",
        "nodes=4294967296", "seed=18446744073709551616", "drain=2",
        "kind=6", "durability=3", "backend=2", "tps=nan", "tps=inf",
        "tps=-inf", "tps=1.5x", "tps=", "version=two"}) {
    EXPECT_EQ(ParsedForm(v + bad + "\n").rfind("rejected", 0), 0u) << bad;
  }
  EXPECT_EQ(ParsedForm("version=3\n").rfind("rejected", 0), 0u);
  EXPECT_EQ(ParsedForm("nodes=4\n").rfind("rejected", 0), 0u);
}

TEST(SimConfigCodecTest, SeededMutationsRoundTripWhenAccepted) {
  const std::string base = SerializeSimConfig(SampleConfig());
  const std::string donor = SerializeSimConfig(SimConfig());
  testutil::ByteMutator mutator(0xC0F16);
  int accepted = 0;
  for (int round = 0; round < 2000; ++round) {
    std::string text = base;
    mutator.Mutate(&text, donor, {});
    const std::string once = ParsedForm(text);
    if (once.rfind("rejected", 0) == 0) continue;
    ++accepted;
    EXPECT_EQ(ParsedForm(once), once) << "round " << round;
  }
  EXPECT_GT(accepted, 100);
}

}  // namespace
}  // namespace tdr

// ChromeTraceWriter and RunReport: structural validity of the emitted
// documents — Perfetto's trace-event contract (monotone per-track
// timestamps, complete X slices, flow triples) and the
// tdr.run_report.v1 section layout. The *ChaosArtifacts* test doubles
// as the ctest fixture that produces the files tools/check_report.py
// validates.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "fault/chaos_scenarios.h"
#include "obs/chrome_trace.h"
#include "obs/profile.h"
#include "obs/run_report.h"
#include "replication/cluster.h"
#include "replication/lazy_master.h"
#include "replication/ownership.h"

namespace tdr::obs {
namespace {

// Walks every event: required keys present, per-(pid,tid) timestamps
// monotone nondecreasing, X slices carry nonnegative durations, and
// every flow start has matching steps/finish under the same id.
void ValidateTraceDoc(const Json& doc) {
  const Json* events = doc.Find("traceEvents");
  ASSERT_NE(events, nullptr);
  ASSERT_EQ(events->type(), Json::Type::kArray);

  std::map<std::pair<std::int64_t, std::int64_t>, std::int64_t> last_ts;
  std::map<std::int64_t, int> flow_starts, flow_finishes;
  bool metadata_done = false;
  for (std::size_t i = 0; i < events->size(); ++i) {
    const Json& e = *events->Item(i);
    const Json* ph = e.Find("ph");
    ASSERT_NE(ph, nullptr) << "event " << i;
    ASSERT_NE(e.Find("name"), nullptr) << "event " << i;
    ASSERT_NE(e.Find("ts"), nullptr) << "event " << i;
    ASSERT_NE(e.Find("pid"), nullptr) << "event " << i;
    ASSERT_NE(e.Find("tid"), nullptr) << "event " << i;
    const std::string& phase = ph->AsString();
    if (phase == "M") {
      // Metadata must precede all timed events.
      EXPECT_FALSE(metadata_done) << "metadata after timed event " << i;
      continue;
    }
    metadata_done = true;
    auto track = std::make_pair(e.Find("pid")->AsInt(),
                                e.Find("tid")->AsInt());
    std::int64_t ts = e.Find("ts")->AsInt();
    auto it = last_ts.find(track);
    if (it != last_ts.end()) {
      EXPECT_LE(it->second, ts) << "track (" << track.first << ","
                                << track.second << ") at event " << i;
      it->second = ts;
    } else {
      last_ts.emplace(track, ts);
    }
    if (phase == "X") {
      const Json* dur = e.Find("dur");
      ASSERT_NE(dur, nullptr);
      EXPECT_GE(dur->AsInt(), 0);
    } else if (phase == "s" || phase == "t" || phase == "f") {
      ASSERT_NE(e.Find("id"), nullptr);
      std::int64_t id = e.Find("id")->AsInt();
      if (phase == "s") ++flow_starts[id];
      if (phase == "f") {
        ++flow_finishes[id];
        const Json* bp = e.Find("bp");
        ASSERT_NE(bp, nullptr);
        EXPECT_EQ(bp->AsString(), "e");
      }
    } else {
      EXPECT_TRUE(phase == "i") << "unexpected phase " << phase;
    }
  }
  // Every flow that starts terminates exactly once, and vice versa.
  EXPECT_EQ(flow_starts.size(), flow_finishes.size());
  for (const auto& [id, n] : flow_starts) {
    EXPECT_EQ(n, 1) << "flow " << id;
    EXPECT_EQ(flow_finishes[id], 1) << "flow " << id;
  }
}

TEST(ChromeTraceWriterTest, SyntheticEventsMakeValidSlicesAndFlows) {
  ChromeTraceWriter trace;
  auto emit = [&](TraceEventType type, std::int64_t us, TxnId txn,
                  NodeId node, TxnId root = kInvalidTxnId) {
    TraceEvent e;
    e.time = SimTime::Micros(us);
    e.type = type;
    e.txn = txn;
    e.node = node;
    e.root = root;
    trace.OnEvent(e);
  };
  // Txn 1 commits at node 0; its updates apply at nodes 1 and 2.
  emit(TraceEventType::kTxnStart, 100, 1, 0);
  emit(TraceEventType::kLockWait, 150, 1, 0);
  emit(TraceEventType::kLockGrant, 180, 1, 0);
  emit(TraceEventType::kTxnCommit, 200, 1, 0);
  emit(TraceEventType::kReplicaTxnStart, 300, 7, 1, /*root=*/1);
  emit(TraceEventType::kReplicaApply, 320, 7, 1, 1);
  emit(TraceEventType::kReplicaTxnDone, 340, 7, 1, 1);
  emit(TraceEventType::kReplicaTxnStart, 310, 8, 2, /*root=*/1);
  emit(TraceEventType::kReplicaTxnDone, 360, 8, 2, 1);
  // Txn 2 aborts and never replicates: no flow.
  emit(TraceEventType::kTxnStart, 400, 2, 1);
  emit(TraceEventType::kTxnAbort, 450, 2, 1);
  trace.OnFault(SimTime::Micros(250), "crash node=2");

  EXPECT_EQ(trace.event_count(), 12u);  // 11 trace events + 1 fault
  Json doc = trace.ToJsonValue();
  ValidateTraceDoc(doc);

  // Count phases.
  const Json* events = doc.Find("traceEvents");
  std::map<std::string, int> by_phase;
  for (std::size_t i = 0; i < events->size(); ++i) {
    ++by_phase[events->Item(i)->Find("ph")->AsString()];
  }
  EXPECT_EQ(by_phase["X"], 4);  // txn 1, txn 2, replica txns 7 and 8
  EXPECT_EQ(by_phase["s"], 1);  // one commit fans out
  EXPECT_EQ(by_phase["t"], 1);  // first apply is a step
  EXPECT_EQ(by_phase["f"], 1);  // last apply terminates
  EXPECT_GE(by_phase["i"], 3);  // lock wait, grant, apply + fault
  EXPECT_EQ(by_phase["M"], 4);  // nodes 0,1,2 + faults track
}

TEST(ChromeTraceWriterTest, RealLazyMasterRunStaysMonotone) {
  Cluster::Options copts;
  copts.num_nodes = 3;
  copts.db_size = 16;
  copts.action_time = SimTime::Millis(2);
  copts.seed = 7;
  Cluster cluster(copts);
  Ownership ownership = Ownership::RoundRobin(copts.db_size, {0, 1, 2});
  LazyMasterScheme scheme(&cluster, &ownership);

  ChromeTraceWriter trace;
  cluster.executor().set_trace_sink(&trace);
  scheme.set_trace_sink(&trace);

  Rng rng = cluster.ForkRng();
  for (int i = 0; i < 30; ++i) {
    ObjectId oid = rng.UniformInt(copts.db_size);
    NodeId origin = static_cast<NodeId>(i % copts.num_nodes);
    cluster.runtime().ScheduleAt(
        SimTime::Millis(10 * i), [&scheme, origin, oid, i]() {
          scheme.Submit(origin, Program({Op::Write(oid, i)}), nullptr);
        });
  }
  cluster.runtime().Run();

  EXPECT_GT(trace.event_count(), 0u);
  Json doc = trace.ToJsonValue();
  ValidateTraceDoc(doc);
}

TEST(RunReportTest, SectionsEmitInFixedOrder) {
  MetricsRegistry reg;
  reg.Increment("txn.committed", 3);
  { ProfileScope scope(reg.GetProfile("profile.event_loop")); }

  TimeSeries series;
  series.interval_seconds = 0.5;
  series.channels.push_back({"txn.committed", true, {1, 2}});

  RunReport report("unit");
  report.SetConfig("nodes", Json(3))
      .AddRow(Json::Object().Set("committed", Json(3)))
      .SetMetrics(reg.Snapshot())
      .SetSeries(series)
      .SetInvariants(Json::Object().Set("violations", Json(0)))
      .SetProfile(reg);

  Json doc = report.ToJsonValue();
  EXPECT_EQ(doc.Find("schema")->AsString(), "tdr.run_report.v1");
  EXPECT_EQ(doc.Find("experiment")->AsString(), "unit");
  ASSERT_NE(doc.Find("config"), nullptr);
  ASSERT_NE(doc.Find("rows"), nullptr);
  EXPECT_EQ(doc.Find("rows")->size(), 1u);
  const Json* metrics = doc.Find("metrics");
  ASSERT_NE(metrics, nullptr);
  const Json* committed = metrics->Find("txn.committed");
  ASSERT_NE(committed, nullptr);
  EXPECT_EQ(committed->Find("kind")->AsString(), "counter");
  EXPECT_EQ(committed->Find("value")->AsInt(), 3);
  // The deterministic metrics section never contains profile entries...
  EXPECT_EQ(metrics->Find("profile.event_loop"), nullptr);
  // ...which live in the separate profile section.
  const Json* profile = doc.Find("profile");
  ASSERT_NE(profile, nullptr);
  EXPECT_NE(profile->Find("profile.event_loop"), nullptr);
  ASSERT_NE(doc.Find("series"), nullptr);
  ASSERT_NE(doc.Find("invariants"), nullptr);
}

// Produces the on-disk artifacts for the schema-checker ctest fixture:
// the acceptance-criterion chaos scenario (crash + partition + drop)
// with both the Chrome trace and the run report enabled.
TEST(ChaosArtifactsTest, WritesChaosArtifacts) {
  workload::ChaosConfig cfg;
  cfg.scheme = fault::SchemeClass::kLazyMaster;
  cfg.num_nodes = 4;
  cfg.db_size = 64;
  cfg.tps_per_node = 10;
  cfg.seconds = 20;
  cfg.seed = 42;
  cfg.plan = workload::FindScenario("crash-partition-drop")
                 .plan(cfg.num_nodes, SimTime::Seconds(cfg.seconds));
  cfg.trace_path = "obs_chaos_trace.json";
  cfg.report_path = "obs_chaos_report.json";

  workload::ChaosOutcome out = workload::RunChaos(cfg);
  EXPECT_EQ(out.violations, 0u) << out.ToString();
  EXPECT_GT(out.committed, 0u);
  // The snapshot rode along on the outcome.
  EXPECT_GT(out.metrics.Counter("txn.committed"), 0u);

  // Artifact paths must now exist and be non-trivial JSON.
  for (const char* path : {"obs_chaos_trace.json", "obs_chaos_report.json"}) {
    std::FILE* f = std::fopen(path, "r");
    ASSERT_NE(f, nullptr) << path;
    char first = 0;
    ASSERT_EQ(std::fread(&first, 1, 1, f), 1u) << path;
    EXPECT_EQ(first, '{') << path;
    std::fclose(f);
  }
}

}  // namespace
}  // namespace tdr::obs

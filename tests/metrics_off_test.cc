// Metrics off changes nothing a run reports. Cluster::Options::
// enable_metrics = false hands every component a null registry, so the
// transaction path does no observability work; the counts a run reports
// come from the executor, the schemes and the appliers that own them,
// never from registry names. Each case runs one configuration twice,
// metrics on and off, and requires the same outcome and state digest.

#include <gtest/gtest.h>

#include <cstdint>
#include <string>

#include "bench/harness.h"
#include "replication/cluster.h"
#include "replication/driver.h"
#include "replication/quorum.h"

namespace tdr {
namespace {

using bench::SchemeKind;
using bench::SimConfig;
using bench::SimOutcome;

// The fields WorkloadDriver::Outcome carries into SimOutcome, plus the
// state digest.
struct Reported {
  std::uint64_t committed, deadlocks, waits, reconciliations, unavailable;
  std::uint64_t replica_applied, replica_deadlocks, state_digest;
};

Reported FromSim(const SimOutcome& o) {
  return {o.committed,       o.deadlocks,       o.waits,
          o.reconciliations, o.unavailable,     o.replica_applied,
          o.replica_deadlocks, o.state_digest};
}

void ExpectSame(const Reported& on, const Reported& off,
                const std::string& name) {
  SCOPED_TRACE(name);
  EXPECT_EQ(on.committed, off.committed);
  EXPECT_EQ(on.deadlocks, off.deadlocks);
  EXPECT_EQ(on.waits, off.waits);
  EXPECT_EQ(on.reconciliations, off.reconciliations);
  EXPECT_EQ(on.unavailable, off.unavailable);
  EXPECT_EQ(on.replica_applied, off.replica_applied);
  EXPECT_EQ(on.replica_deadlocks, off.replica_deadlocks);
  EXPECT_EQ(on.state_digest, off.state_digest);
}

// A contended window: 3 nodes, 500 objects, 4-write transactions.
SimConfig Contended(SchemeKind kind) {
  SimConfig c;
  c.kind = kind;
  c.nodes = 3;
  c.db_size = 500;
  c.tps = 10;
  c.actions = 4;
  c.action_time = 0.02;
  c.sim_seconds = 30;
  c.seed = 7;
  return c;
}

// Runs `config` with metrics on and off; returns the metrics-on outcome.
Reported RunBoth(SimConfig config, const std::string& name) {
  config.enable_metrics = true;
  const Reported on = FromSim(bench::RunScheme(config));
  config.enable_metrics = false;
  const Reported off = FromSim(bench::RunScheme(config));
  ExpectSame(on, off, name);
  return on;
}

TEST(MetricsOffTest, LazyGroupBatchedReportsTheSameOutcome) {
  SimConfig c = Contended(SchemeKind::kLazyGroup);
  c.batch_flush_window = 0.05;
  const Reported on = RunBoth(c, "lazy-group batched");
  EXPECT_GT(on.replica_applied, 0u);
  EXPECT_GT(on.reconciliations, 0u);
}

TEST(MetricsOffTest, LazyMasterReportsTheSameOutcome) {
  const Reported on = RunBoth(Contended(SchemeKind::kLazyMaster),
                              "lazy-master");
  EXPECT_GT(on.replica_applied, 0u);
  EXPECT_GT(on.waits, 0u);
}

TEST(MetricsOffTest, EagerGroupUnderPartitionReportsTheSameOutcome) {
  SimConfig c = Contended(SchemeKind::kEagerGroup);
  c.fault_partition_cycle = true;
  const Reported on = RunBoth(c, "eager-group partitioned");
  EXPECT_GT(on.unavailable, 0u);
  EXPECT_GT(on.waits, 0u);
  EXPECT_GT(on.deadlocks, 0u);
}

// The bench harness has no quorum scheme; drive one directly.
Reported RunQuorum(bool enable_metrics) {
  Cluster::Options copts;
  copts.num_nodes = 3;
  copts.db_size = 500;
  copts.action_time = SimTime::Millis(20);
  copts.seed = 7;
  copts.enable_metrics = enable_metrics;
  Cluster cluster(copts);
  QuorumEagerScheme scheme(&cluster);
  WorkloadDriver::Options dopts;
  dopts.tps_per_node = 10;
  dopts.workload.actions = 4;
  dopts.seconds = 30;
  WorkloadDriver driver(&cluster, &scheme, dopts);
  const WorkloadDriver::Outcome o = driver.Run();
  return {o.committed,       o.deadlocks,       o.waits,
          o.reconciliations, o.unavailable,     o.replica_applied,
          o.replica_deadlocks, cluster.StateDigest()};
}

TEST(MetricsOffTest, QuorumReportsTheSameOutcome) {
  const Reported on = RunQuorum(true);
  ExpectSame(on, RunQuorum(false), "quorum");
  EXPECT_GT(on.waits, 0u);
}

}  // namespace
}  // namespace tdr

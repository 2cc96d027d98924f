// Golden outputs for the hot path. The determinism suites compare two
// runs of one binary, so a change that shifts every run the same way
// passes them; these tests pin absolute values instead. Each E14
// configuration (bench::HotPathRig, shared with bench_hot_path: 4 nodes
// x 10,000 objects, 120 txn/s per node, 4 writes, 5 ms actions, seed
// 42) runs a short seeded window and must reproduce its state digest
// and counters exactly, and a seeded §6 gossip run must reproduce its
// exchange conflict counts and store digests. A constant-factor change
// to the store, the lock manager, the executor or the applier must
// leave every value here as it is; a value that moves is a behaviour
// change.

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "bench/harness.h"
#include "replication/convergence.h"
#include "util/rng.h"

namespace tdr {
namespace {

using bench::HotPathRig;
using bench::HotScheme;

struct Golden {
  const char* name;
  HotScheme scheme;
  std::uint64_t state_digest;
  std::uint64_t committed;
  std::uint64_t deadlocks;
  std::uint64_t reconciliations;
};

// Recorded before the touch-ahead prefetch and the 48-byte store row
// (DESIGN.md §12.5); both must leave them unchanged.
const Golden kGolden[] = {
    {"eager-group", HotScheme::kEagerGroup, 16093976295480415059ULL, 1395, 3,
     0},
    {"lazy-group", HotScheme::kLazyGroup, 5282872170944986528ULL, 1434, 0,
     61},
    {"lazy-group-batched", HotScheme::kLazyGroupBatched,
     675946627896828270ULL, 1428, 0, 442},
    {"lazy-master", HotScheme::kLazyMaster, 633308179084503287ULL, 1434, 0,
     0},
    {"lazy-master-batched", HotScheme::kLazyMasterBatched,
     6963763665977053523ULL, 1434, 0, 0},
    {"quorum", HotScheme::kQuorum, 8490182444272417896ULL, 1408, 0, 0},
};

TEST(HotPathGoldenTest, E14ConfigurationsReproduceRecordedOutputs) {
  for (const Golden& g : kGolden) {
    HotPathRig rig(g.scheme, 3.0);
    const WorkloadDriver::Outcome out = rig.Run();
    EXPECT_EQ(rig.StateDigest(), g.state_digest) << g.name;
    EXPECT_EQ(out.committed, g.committed) << g.name;
    EXPECT_EQ(out.deadlocks, g.deadlocks) << g.name;
    EXPECT_EQ(out.reconciliations, g.reconciliations) << g.name;
  }
}

struct GossipGolden {
  const char* rule;
  std::vector<std::uint64_t> round_conflicts;
  std::vector<std::uint64_t> digests;
};

// Four replicas of 64 objects take seeded replaces (some read-modify-
// write) and exchange state with seeded partners between rounds, so
// version vectors dominate in some pairs and are concurrent in others.
// Records the conflicts of each round and of the final convergence,
// each replica's digest before it, and the converged digest.
GossipGolden RunGossip(const char* rule_name) {
  const ReconciliationRule rule = RuleByName(rule_name);
  GossipCluster cluster(4, 64);
  Rng rng(2024, 11);
  GossipGolden out{rule_name, {}, {}};
  for (int round = 0; round < 12; ++round) {
    for (int w = 0; w < 24; ++w) {
      GossipReplica& r = cluster.replica(
          static_cast<NodeId>(rng.UniformInt(cluster.size())));
      const ObjectId oid = rng.UniformInt(64);
      if (rng.Bernoulli(0.5)) {
        r.LocalReplaceAdd(oid, rng.UniformRange(1, 9));
      } else {
        r.LocalReplace(oid, Value(rng.UniformRange(0, 99)));
      }
    }
    std::uint64_t conflicts = 0;
    for (int e = 0; e < 3; ++e) {
      const auto a = static_cast<NodeId>(rng.UniformInt(cluster.size()));
      const auto b = static_cast<NodeId>(rng.UniformInt(cluster.size()));
      if (a == b) continue;
      conflicts += cluster.replica(a).ExchangeState(&cluster.replica(b), rule);
    }
    out.round_conflicts.push_back(conflicts);
  }
  for (NodeId id = 0; id < cluster.size(); ++id) {
    out.digests.push_back(cluster.replica(id).store().Digest());
  }
  out.round_conflicts.push_back(cluster.ConvergeState(rule));
  EXPECT_TRUE(cluster.Converged()) << rule_name;
  out.digests.push_back(cluster.replica(0).store().Digest());
  return out;
}

std::string Join(const std::vector<std::uint64_t>& xs) {
  std::string s;
  for (std::uint64_t x : xs) s += std::to_string(x) + ",";
  return s;
}

TEST(HotPathGoldenTest, GossipExchangeReproducesRecordedOutputs) {
  const GossipGolden golden[] = {
      {"latest-timestamp",
       {1, 3, 5, 12, 8, 8, 3, 17, 1, 11, 7, 3, 2},
       {4476188092328596280ULL, 7643422806845437390ULL,
        4476188092328596280ULL, 7141215896547272806ULL,
        805616231264991742ULL}},
      {"additive",
       {1, 3, 5, 12, 8, 8, 3, 17, 1, 11, 7, 3, 2},
       {16623918195066134406ULL, 10607841201590900711ULL,
        16623918195066134406ULL, 12478298683981407523ULL,
        3507387302585274016ULL}},
  };
  for (const GossipGolden& g : golden) {
    const GossipGolden run = RunGossip(g.rule);
    EXPECT_EQ(Join(run.round_conflicts), Join(g.round_conflicts)) << g.rule;
    EXPECT_EQ(Join(run.digests), Join(g.digests)) << g.rule;
  }
}

}  // namespace
}  // namespace tdr

// E1 — Table 1: "A taxonomy of replication strategies contrasting
// propagation strategy (eager or lazy) with the ownership strategy
// (master or group)."
//
// The table is regenerated two ways: from each scheme's metadata, and by
// actually running one two-action user update on a 3-node cluster and
// counting the transactions it spawns and the object owners involved.

#include <cstdio>

#include "bench/harness.h"
#include "core/two_tier.h"

namespace tdr::bench {
namespace {

struct Row {
  std::string name;
  bool eager;
  bool group;
  std::uint64_t claimed_txns;
  std::uint64_t measured_txns;
  std::uint64_t owners;
};

// Counts the transactions one user update causes under `kind` on an
// N-node cluster: the user transaction plus any replica-update
// transactions it spawns.
std::uint64_t MeasureTransactions(SchemeKind kind, std::uint32_t nodes) {
  Cluster::Options copts;
  copts.num_nodes = nodes;
  copts.db_size = 64;
  copts.action_time = SimTime::Millis(10);
  Cluster cluster(copts);
  std::vector<NodeId> all(nodes);
  for (std::uint32_t i = 0; i < nodes; ++i) all[i] = i;
  Ownership own = Ownership::RoundRobin(64, all);

  std::unique_ptr<ReplicationScheme> scheme;
  switch (kind) {
    case SchemeKind::kEagerGroup:
      scheme = std::make_unique<EagerGroupScheme>(&cluster);
      break;
    case SchemeKind::kEagerMaster:
      scheme = std::make_unique<EagerMasterScheme>(&cluster, &own);
      break;
    case SchemeKind::kLazyGroup:
      scheme = std::make_unique<LazyGroupScheme>(&cluster);
      break;
    case SchemeKind::kLazyMaster:
      scheme = std::make_unique<LazyMasterScheme>(&cluster, &own);
      break;
    default:
      return 0;
  }
  // A single-object update: Table 1 counts transactions per object
  // update (multi-owner transactions add one slave txn per owner).
  scheme->Submit(0, Program({Op::Write(1, 10)}), nullptr);
  cluster.runtime().Run();
  // User transactions + replica-update transactions. Replica updates
  // are batched one-per-destination-node, each counted via the applier.
  std::uint64_t user = cluster.executor().committed();
  std::uint64_t replica_batches =
      cluster.metrics().Get("net.delivered");  // one batch per message
  return user + replica_batches;
}

}  // namespace

void Main() {
  PrintBanner("E1", "Replication strategy taxonomy", "Table 1 (p. 175)");
  const std::uint32_t kNodes = 3;
  std::printf("Cluster: N = %u nodes; one single-object user update\n\n",
              kNodes);
  std::printf("%-14s | %-6s | %-6s | %-18s | %-18s | %s\n", "scheme",
              "eager", "group", "txns (Table 1)", "txns (measured)",
              "object owners");
  std::printf("---------------+--------+--------+--------------------+-----"
              "---------------+---------------\n");

  struct Entry {
    SchemeKind kind;
    const char* claimed;
    const char* owners;
  };
  const Entry entries[] = {
      {SchemeKind::kEagerGroup, "one transaction", "N object owners"},
      {SchemeKind::kEagerMaster, "one transaction", "one object owner"},
      {SchemeKind::kLazyGroup, "N transactions", "N object owners"},
      {SchemeKind::kLazyMaster, "N transactions", "one object owner"},
  };
  // Each row's measurement spins up its own cluster; run all four
  // concurrently on the sweep runner.
  sim::SweepRunner runner;
  std::vector<std::uint64_t> measured_txns =
      runner.Map<std::uint64_t>(4, [&](std::size_t i) {
        return MeasureTransactions(entries[i].kind, kNodes);
      });
  for (const Entry& e : entries) {
    Cluster::Options copts;
    copts.num_nodes = kNodes;
    Cluster probe(copts);
    std::unique_ptr<ReplicationScheme> scheme;
    std::vector<NodeId> all(kNodes);
    for (std::uint32_t i = 0; i < kNodes; ++i) all[i] = i;
    Ownership own = Ownership::RoundRobin(copts.db_size, all);
    switch (e.kind) {
      case SchemeKind::kEagerGroup:
        scheme = std::make_unique<EagerGroupScheme>(&probe);
        break;
      case SchemeKind::kEagerMaster:
        scheme = std::make_unique<EagerMasterScheme>(&probe, &own);
        break;
      case SchemeKind::kLazyGroup:
        scheme = std::make_unique<LazyGroupScheme>(&probe);
        break;
      default:
        scheme = std::make_unique<LazyMasterScheme>(&probe, &own);
        break;
    }
    std::uint64_t measured = measured_txns[&e - entries];
    std::printf("%-14s | %-6s | %-6s | %-18s | %-18llu | %s\n",
                std::string(scheme->name()).c_str(),
                scheme->eager() ? "yes" : "no",
                scheme->group_ownership() ? "yes" : "no", e.claimed,
                static_cast<unsigned long long>(measured), e.owners);
  }

  // The Table 1 "Two Tier" row: N+1 transactions (tentative + base +
  // replica refreshes), one object owner.
  TwoTierSystem::Options topts;
  topts.num_base = 2;
  topts.num_mobile = 1;
  topts.db_size = 64;
  TwoTierSystem sys(topts);
  sys.SubmitTentative(2, Program({Op::Add(0, 1)}), AcceptAlways(), nullptr,
                      nullptr);
  sys.cluster().runtime().Run();
  sys.Connect(2);
  sys.cluster().runtime().Run();
  // Tentative txn + base txn + one slave-refresh txn per other replica.
  std::uint64_t two_tier_txns = sys.tentative_submitted() +
                                sys.base_committed() +
                                sys.cluster().metrics().Get("replica.applied");
  std::printf("%-14s | %-6s | %-6s | %-18s | %-18llu | %s\n", "two-tier",
              "lazy+", "no", "N+1 transactions",
              static_cast<unsigned long long>(two_tier_txns),
              "one object owner");
  std::printf(
      "\nNote: measured lazy counts are root txn + one replica-update\n"
      "transaction per remote node = N, matching Table 1; eager counts\n"
      "are a single (distributed) transaction.\n");
}

}  // namespace tdr::bench

int main() { tdr::bench::Main(); }

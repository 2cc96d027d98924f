// E2 — Figure 1 and equations (6)-(8): how transaction size, duration,
// concurrent-transaction count and total action rate grow as a 1-node
// system is replicated to N nodes.
//
// For each N we print the analytic prediction and a simulator
// measurement of the same quantity:
//  * eager transaction duration (Eq. 6: Actions x Nodes x Action_Time),
//  * lazy transaction count per user update (Figure 1: N transactions),
//  * total action (update) rate (Eq. 8: TPS x Actions x Nodes^2).

#include <cstdio>
#include <optional>

#include "bench/harness.h"

namespace tdr::bench {
namespace {

struct Measured {
  double eager_duration;   // seconds, single uncontended txn
  double lazy_txns;        // transactions per user update
  double action_rate;      // installed updates per second, whole cluster
};

Measured MeasureAt(std::uint32_t nodes) {
  Measured m{};
  // (a) Eager single-transaction duration on an idle cluster.
  {
    Cluster::Options copts;
    copts.num_nodes = nodes;
    copts.db_size = 64;
    copts.action_time = SimTime::Millis(10);
    Cluster cluster(copts);
    EagerGroupScheme scheme(&cluster);
    std::optional<TxnResult> result;
    scheme.Submit(0, Program({Op::Write(0, 1), Op::Write(1, 1),
                              Op::Write(2, 1), Op::Write(3, 1)}),
                  [&](const TxnResult& r) { result = r; });
    cluster.runtime().Run();
    m.eager_duration = result->Duration().seconds();
  }
  // (b) Lazy transactions per user update.
  {
    Cluster::Options copts;
    copts.num_nodes = nodes;
    copts.db_size = 64;
    copts.action_time = SimTime::Millis(10);
    Cluster cluster(copts);
    LazyGroupScheme scheme(&cluster);
    scheme.Submit(0, Program({Op::Write(0, 1)}), nullptr);
    cluster.runtime().Run();
    // Root + one replica-update transaction per remote node.
    m.lazy_txns = 1.0 + static_cast<double>(
                            cluster.metrics().Get("net.delivered"));
  }
  // (c) Total action rate under load (updates installed per second at
  // all replicas). Low contention so queueing does not distort it.
  {
    SimConfig config;
    config.kind = SchemeKind::kLazyGroup;
    config.nodes = nodes;
    config.db_size = 20000;
    config.tps = 5;
    config.actions = 4;
    config.action_time = 0.002;
    config.sim_seconds = 100;
    SimOutcome out = RunScheme(config);
    // Each committed root txn installs `actions` updates at the origin;
    // each replica batch re-installs them at one remote node.
    m.action_rate = (static_cast<double>(out.committed) * config.actions +
                     static_cast<double>(out.replica_applied)) /
                    out.seconds;
  }
  return m;
}

}  // namespace

void Main() {
  PrintBanner("E2", "Replication work growth",
              "Figure 1 + equations (6)-(8) (pp. 175-177)");
  analytic::ModelParams p;
  p.tps = 5;
  p.actions = 4;
  p.action_time = 0.002;
  p.db_size = 20000;

  std::printf(
      "Single eager txn: Actions=4, Action_Time=10ms. Load: TPS=5/node, "
      "Actions=4, Action_Time=2ms.\n\n");
  std::printf("%5s | %-21s | %-21s | %-21s\n", "", "eager txn duration (s)",
              "lazy txns / update", "action rate (upd/s)");
  std::printf("%5s | %10s %10s | %10s %10s | %10s %10s\n", "nodes", "model",
              "measured", "model", "measured", "model", "measured");
  std::printf("------+----------------------+----------------------+-------"
              "---------------\n");

  // Each node count's three measurements are independent full
  // simulations; fan them out over the sweep runner's pool.
  const std::vector<std::uint32_t> kNodes{1, 2, 3, 5, 10};
  sim::SweepRunner runner;
  std::vector<Measured> measured = runner.Map<Measured>(
      kNodes.size(), [&](std::size_t i) { return MeasureAt(kNodes[i]); });

  std::vector<std::pair<double, double>> rate_points;
  for (std::size_t i = 0; i < kNodes.size(); ++i) {
    std::uint32_t n = kNodes[i];
    p.nodes = n;
    const Measured& m = measured[i];
    double model_duration = 4 * n * 0.010;  // Eq. (6) at bench params
    double model_lazy_txns = n;             // Figure 1 / Table 1
    double model_rate = analytic::ActionRate(p);  // Eq. (8)
    std::printf("%5u | %10.3f %10.3f | %10.0f %10.0f | %10.1f %10.1f\n", n,
                model_duration, m.eager_duration, model_lazy_txns,
                m.lazy_txns, model_rate, m.action_rate);
    rate_points.emplace_back(n, m.action_rate);
  }
  std::printf(
      "\nMeasured action-rate growth exponent: %.2f (model: 2.00 — \"the "
      "node update rate grows by N^2\")\n",
      FitPowerLawExponent(rate_points));
  std::printf(
      "Eq. (7) corollary: eager has fewer-longer transactions, lazy has\n"
      "more-shorter ones; the total active-transaction count is the same.\n");
}

}  // namespace tdr::bench

int main() { tdr::bench::Main(); }

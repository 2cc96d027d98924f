// E14 — hot-path cost per committed transaction.
//
// The paper's scale argument is quantitative, so the simulator's own
// per-transaction constant factors bound how far the sweeps can scale.
// This bench measures those constants directly for every scheme class:
// wall-clock nanoseconds per committed transaction and heap
// allocations per committed transaction, over a steady-state window
// that starts after a warmup run has filled the pools.
//
// Allocation counting comes from util/alloc_audit.h: this binary links
// tdr_alloc_audit, which replaces global operator new/delete with
// counting versions. The EXPERIMENTS.md E14 table and the
// alloc-regression gate (tests/alloc_audit_test) both key off the
// numbers reported here; BENCH_hot_path.json is schema-checked in CI.

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "bench/harness.h"
#include "obs/run_report.h"
#include "util/alloc_audit.h"

namespace tdr::bench {
namespace {

constexpr double kMeasureSeconds = 20;

struct HotConfig {
  const char* name;
  HotScheme scheme;
  /// The configuration the ≥1.3x throughput acceptance gate is
  /// measured on (EXPERIMENTS.md E14).
  bool headline = false;
};

struct HotResult {
  std::uint64_t committed = 0;
  std::uint64_t deadlocks = 0;
  std::uint64_t state_digest = 0;  // every replica, end of the window
  double sim_rate = 0;             // committed / sim-second
  double wall_seconds = 0;         // wall time of the measured window
  double ns_per_committed = 0;
  double allocs_per_committed = 0;
  double bytes_per_committed = 0;
};

HotResult RunHot(const HotConfig& config) {
  HotPathRig rig(config.scheme, kMeasureSeconds);

  // Warmup window, as long as the measured one: reaches open-loop
  // steady state and fills every pool (event slots, messages, lock
  // waiters, inflight txns, batches). Only the second window is
  // measured.
  (void)rig.Run();

  // TDR_TRACE_ALLOCS=N dumps backtraces for the first N measured-window
  // allocations of every config — how to localize a regression when the
  // allocs/txn column stops reading 0.
  if (const char* trace = std::getenv("TDR_TRACE_ALLOCS")) {
    std::fprintf(stderr, "[alloc-audit] config %s\n", config.name);
    TraceNextAllocations(std::atoll(trace));
  }

  AllocScope scope;
  auto wall_start = std::chrono::steady_clock::now();
  WorkloadDriver::Outcome out = rig.Run();
  auto wall_end = std::chrono::steady_clock::now();

  HotResult result;
  result.committed = out.committed;
  result.deadlocks = out.deadlocks;
  result.state_digest = rig.StateDigest();
  result.sim_rate = out.committed_rate();
  result.wall_seconds =
      std::chrono::duration<double>(wall_end - wall_start).count();
  if (out.committed > 0) {
    auto denom = static_cast<double>(out.committed);
    result.ns_per_committed = result.wall_seconds * 1e9 / denom;
    result.allocs_per_committed =
        static_cast<double>(scope.allocations()) / denom;
    result.bytes_per_committed = static_cast<double>(scope.bytes()) / denom;
  }
  return result;
}

int Main() {
  PrintBanner("E14", "Hot-path cost per committed transaction",
              "constant factors behind every sweep (ROADMAP north star)");
  if (!AllocAuditLinked()) {
    std::printf("WARNING: alloc audit hooks not linked; "
                "allocation columns will read 0\n");
  }

  const std::vector<HotConfig> configs = {
      {"eager-group", HotScheme::kEagerGroup},
      {"lazy-group", HotScheme::kLazyGroup},
      {"lazy-group-batched", HotScheme::kLazyGroupBatched, true},
      {"lazy-master", HotScheme::kLazyMaster},
      {"lazy-master-batched", HotScheme::kLazyMasterBatched},
      {"quorum", HotScheme::kQuorum},
  };

  std::printf("%-20s %10s %10s %12s %12s %12s\n", "scheme", "committed",
              "sim tps", "ns/txn", "allocs/txn", "bytes/txn");

  obs::RunReport report("hot_path");
  report.SetConfig("nodes", obs::Json(std::uint64_t{HotPathRig::kNodes}))
      .SetConfig("db_size", obs::Json(std::uint64_t{HotPathRig::kDbSize}))
      .SetConfig("tps_per_node", obs::Json(HotPathRig::kTpsPerNode))
      .SetConfig("actions", obs::Json(std::uint64_t{HotPathRig::kActions}))
      .SetConfig("action_time", obs::Json(HotPathRig::kActionTime))
      .SetConfig("warmup_seconds", obs::Json(kMeasureSeconds))
      .SetConfig("measure_seconds", obs::Json(kMeasureSeconds))
      .SetConfig("alloc_audit_linked", obs::Json(AllocAuditLinked()));

  for (const HotConfig& config : configs) {
    HotResult r = RunHot(config);
    std::printf("%-20s %10llu %10.1f %12.0f %12.2f %12.1f\n", config.name,
                static_cast<unsigned long long>(r.committed), r.sim_rate,
                r.ns_per_committed, r.allocs_per_committed,
                r.bytes_per_committed);

    obs::Json row = obs::Json::Object();
    row.Set("scheme", obs::Json(config.name));
    row.Set("headline", obs::Json(config.headline));
    row.Set("committed", obs::Json(r.committed));
    row.Set("deadlocks", obs::Json(r.deadlocks));
    row.Set("state_digest", obs::Json(HexDigest(r.state_digest)));
    row.Set("sim_committed_rate", obs::Json(r.sim_rate));
    row.Set("wall_seconds", obs::Json(r.wall_seconds));
    row.Set("ns_per_committed", obs::Json(r.ns_per_committed));
    row.Set("allocs_per_committed", obs::Json(r.allocs_per_committed));
    row.Set("bytes_per_committed", obs::Json(r.bytes_per_committed));
    report.AddRow(std::move(row));
  }

  WriteReport(report, "BENCH_hot_path.json");
  return 0;
}

}  // namespace
}  // namespace tdr::bench

int main() { return tdr::bench::Main(); }

#ifndef TDR_REPLICATION_DRIVER_H_
#define TDR_REPLICATION_DRIVER_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "obs/metrics.h"
#include "replication/cluster.h"
#include "replication/scheme.h"
#include "workload/workload.h"

namespace tdr {

/// Drives the Table-2 workload model against a cluster + scheme and
/// collects the measurements every experiment reports: one open-loop
/// arrival process per node (each with its own deterministic RNG
/// stream), uniform transaction generation, a fixed measurement window.
///
/// This is the engine behind the bench binaries and the tdrsim CLI;
/// library users get the same one-call experiment:
///
///   Cluster cluster(copts);
///   LazyGroupScheme scheme(&cluster);
///   WorkloadDriver driver(&cluster, &scheme, opts);
///   WorkloadDriver::Outcome out = driver.Run();
class WorkloadDriver {
 public:
  struct Options {
    double tps_per_node = 10;                 // TPS (Table 2)
    ProgramGenerator::Options workload;       // Actions, mix, access skew
    double seconds = 300;                     // measurement window
    bool poisson_arrivals = true;
  };

  struct Outcome {
    double seconds = 0;
    std::uint64_t submitted = 0;
    std::uint64_t committed = 0;
    std::uint64_t deadlocks = 0;
    std::uint64_t waits = 0;
    std::uint64_t reconciliations = 0;
    std::uint64_t unavailable = 0;
    std::uint64_t replica_deadlocks = 0;
    std::uint64_t replica_applied = 0;
    std::uint64_t wait_timeouts = 0;
    std::uint64_t divergent_slots = 0;

    double Rate(std::uint64_t count) const {
      return seconds > 0 ? static_cast<double>(count) / seconds : 0;
    }
    double committed_rate() const { return Rate(committed); }
    double deadlock_rate() const { return Rate(deadlocks); }
    double wait_rate() const { return Rate(waits); }
    double reconciliation_rate() const { return Rate(reconciliations); }

    std::string ToString() const;
  };

  /// `cluster` and `scheme` must outlive the driver. The workload's
  /// db_size is forced to the cluster's.
  WorkloadDriver(Cluster* cluster, ReplicationScheme* scheme,
                 Options options);

  WorkloadDriver(const WorkloadDriver&) = delete;
  WorkloadDriver& operator=(const WorkloadDriver&) = delete;

  /// Runs the window (RunUntil seconds of simulated time), stops the
  /// arrival processes, and returns the measured outcome. Counters that
  /// predate this call are subtracted out, so consecutive Run()s on one
  /// cluster measure their own windows.
  Outcome Run();

  /// Reconciliations reported by the scheme if it is a LazyGroupScheme
  /// (else its replica applier's conflicts; 0 without one). Exposed for
  /// callers composing their own measurement logic.
  std::uint64_t CurrentReconciliations() const;

 private:
  struct Baseline {
    std::uint64_t committed = 0, deadlocks = 0, waits = 0;
    std::uint64_t reconciliations = 0, unavailable = 0;
    std::uint64_t replica_deadlocks = 0, replica_applied = 0;
    std::uint64_t wait_timeouts = 0;
  };

  Baseline Snapshot() const;

  Cluster* cluster_;
  ReplicationScheme* scheme_;
  Options options_;
  ProgramGenerator generator_;
  /// Reused per arrival (single-threaded sim): programs are regenerated
  /// in place instead of allocated per transaction.
  Program program_scratch_;
  /// Metric handles resolved once (label strings allocate); reused by
  /// every window so Run() itself stays off the allocator.
  std::vector<obs::MetricsRegistry::Counter> submitted_at_;
  obs::MetricsRegistry::Counter skipped_crashed_;
  obs::MetricsRegistry::StatsHandle profile_event_loop_;
  std::uint64_t submitted_ = 0;
};

}  // namespace tdr

#endif  // TDR_REPLICATION_DRIVER_H_

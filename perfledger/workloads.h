#ifndef TDR_PERFLEDGER_WORKLOADS_H_
#define TDR_PERFLEDGER_WORKLOADS_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace tdr::perfledger {

enum class Backend { kSim, kThreads, kProc };

/// One fixed workload of the ledger. Every episode of a workload runs
/// the same sizes: a warm-up of `warmup_s` simulated seconds, then a
/// measured window of `window_s`. Both are fixed because lazy-group
/// reconciliations per txn and the in-memory WAL's footprint grow with
/// the run length; with fixed windows a change in them shows up as a
/// count, not as noise.
struct Workload {
  const char* name;
  Backend backend;
  /// Eager-group as a closed loop of `clients_per_node` clients per
  /// node; otherwise lazy-group with open-loop Poisson arrivals at
  /// `tps_per_node`.
  bool eager_closed;
  std::uint32_t nodes;
  std::uint64_t db_size;
  double tps_per_node;
  std::uint32_t clients_per_node;
  std::uint32_t actions;
  double action_time_s;
  /// Lazy-group BatchShipper flush window; 0 ships every commit.
  double batch_window_s;
  /// Group-commit WAL on the in-memory backend (no fdatasync).
  bool wal;
  double warmup_s;
  double window_s;
  /// Workloads whose traced run goes along with this one's ledger run,
  /// to measure the layers only their backends exercise.
  std::vector<const char*> companions = {};
};

/// WAL flush policy of the workloads that log: a simulated 0.5 ms
/// flush, a 0.1 ms group window and at most 64 records per group.
inline constexpr double kWalFlushS = 0.0005;
inline constexpr double kWalGroupWindowS = 0.0001;
inline constexpr std::uint64_t kWalGroupMax = 64;

const std::vector<Workload>& Workloads();
const Workload* FindWorkload(std::string_view name);

/// What an episode must reproduce to count as correct: the final
/// state, per shard, and the window's commit, deadlock, wait and
/// reconciliation counts (equal counts over equal windows are equal
/// virtual-time rates). `has_rates` is false where a backend reports
/// only digests and commits; `metrics_fp` is 0 where the registry was
/// off.
struct Fingerprint {
  std::uint64_t state_digest = 0;
  std::vector<std::uint64_t> shard_digests;
  std::uint64_t committed = 0;
  bool has_rates = false;
  std::uint64_t deadlocks = 0;
  std::uint64_t waits = 0;
  std::uint64_t reconciliations = 0;
  std::uint64_t metrics_fp = 0;

  /// Empty when `other` agrees on every field both sides carry, else
  /// the first disagreement.
  std::string Mismatch(const Fingerprint& other) const;
};

/// Per-layer counts over the measured window of a traced episode, as
/// totals (the ledger divides by `committed`).
struct LayerCounts {
  double committed = 0;
  double submitted = 0;
  double events = 0;
  double pending_depth = 0;
  double runtime_waves = 0;
  double runtime_events = 0;
  double worker_utilization = 0;
  double mailbox_max_depth = 0;
  double lock_waits = 0;
  double replica_waits = 0;
  double deadlocks = 0;
  /// Executor steps and their wall micros: the profile.lock_acquire
  /// scope, which wraps each lock-acquire step and the commit step.
  double executor_steps = 0;
  double executor_step_us = 0;
  double net_msgs = 0;
  double batches = 0;
  double batch_updates = 0;
  /// Replica records installed, and the profile.replica_apply scope's
  /// calls (installs and conflicts) and wall micros.
  double replica_applies = 0;
  double replica_apply_calls = 0;
  double replica_apply_us = 0;
  double conflicts = 0;
  double wal_records = 0;
  double wal_flushes = 0;
  double wal_bytes = 0;
  /// WalRecovery::Recover over the finished run's log, timed after the
  /// window (0 records when the workload has no WAL).
  double wal_recovered_records = 0;
  double wal_recover_ns = 0;
  // Transport, summed over every node process (proc only).
  double proc_frames = 0;
  double proc_bytes = 0;
  double proc_syscalls = 0;
  double proc_eagain_waits = 0;
};

struct EpisodeOptions {
  Backend backend = Backend::kSim;
  /// Metrics registry on: the traced configuration.
  bool metrics = false;
  /// Invariant checker armed (untimed oracle runs only).
  bool checker = false;
};

struct Episode {
  Fingerprint fp;
  /// Wall time from the start of the episode to the first measured
  /// txn: cluster build, thread spawn or fork, warm-up.
  double setup_s = 0;
  double window_wall_s = 0;
  /// User + system CPU over the window, reaped children included.
  double window_cpu_s = 0;
  /// Transactions committed / aborted (deadlock victims, rejected or
  /// unavailable) in the window.
  std::uint64_t committed = 0;
  std::uint64_t aborted = 0;
  std::uint64_t invariant_violations = 0;
  std::uint64_t delusion_slots = 0;
  std::string error;  // non-empty when the backend reported a failure
  LayerCounts counts;  // filled when options.metrics
};

/// Runs one episode of `workload` with inputs drawn from `seed`.
Episode RunEpisode(const Workload& workload, std::uint64_t seed,
                   const EpisodeOptions& options);

/// The untimed sim oracle for `workload` and `seed`: the same config
/// through the in-process simulator with the registry on and the
/// invariant checker armed (bench::RunScheme for the proc workload,
/// whose children run exactly that).
Episode RunOracle(const Workload& workload, std::uint64_t seed);


}  // namespace tdr::perfledger

#endif  // TDR_PERFLEDGER_WORKLOADS_H_

#ifndef TDR_PERFLEDGER_LAYERS_H_
#define TDR_PERFLEDGER_LAYERS_H_

#include <cstddef>
#include <cstdint>

namespace tdr::perfledger {

/// The call mix each layer is driven with, taken from a traced run's
/// counts so the isolated calls see the workload's sizes.
struct LayerShape {
  std::uint32_t nodes = 3;
  std::uint64_t db_size = 10000;
  std::uint32_t actions = 4;
  std::size_t pending_depth = 64;      // event-core queue depth
  std::size_t updates_per_batch = 1;   // BatchShipper batch size
  std::size_t records_per_flush = 1;   // WAL records per group flush
};

/// Wall nanoseconds per call into each layer's public functions, each
/// the median of several timed repetitions on this process's thread
/// (the dispatch figure also uses one worker thread per node).
struct LayerCosts {
  /// Simulator::ScheduleAfter + RunUntil, hold model at pending_depth.
  double sim_ns_per_event = 0;
  /// The same hold model on ThreadRuntime (epoch dispatch, node-tagged
  /// events on random nodes, at most one worker per core besides the
  /// coordinator): event core plus mailbox hand-off.
  double runtime_ns_per_dispatch = 0;
  /// LockManager::Acquire x actions + ReleaseAll, no contention.
  double txn_ns_per_lock_txn = 0;
  /// WaitForGraph AddEdge + HasCycleFrom + RemoveEdge on a graph of
  /// short wait chains: the graph work of one lock wait.
  double txn_ns_per_cycle_check = 0;
  /// ObjectStore::GetMutable + timestamped write, uniform over db_size.
  double storage_ns_per_write = 0;
  /// Network::Send + delivery through the event core.
  double net_ns_per_msg = 0;
  /// BatchShipper::Enqueue(updates_per_batch) + Flush + delivery.
  double replication_ns_per_batch = 0;
  /// Wal::Append on MemWalBackend, with BeginFlush/CompleteFlush every
  /// records_per_flush records; per record.
  double wal_ns_per_append = 0;
  /// WalRecovery::Recover over the log the append loop wrote.
  double wal_recover_ns_per_record = 0;
  /// EncodeFrame + FrameDecoder::Feed/Next of one delivery frame.
  double proc_ns_per_frame = 0;
  /// One-way wake-up over a Unix socket pair: a blocked reader woken by
  /// its peer's write, half of a two-thread ping-pong round trip.
  double proc_ns_per_wakeup = 0;
  /// ProgramGenerator::NextInto.
  double workload_ns_per_program = 0;
};

LayerCosts MeasureLayers(const LayerShape& shape, std::uint64_t seed);

}  // namespace tdr::perfledger

#endif  // TDR_PERFLEDGER_LAYERS_H_

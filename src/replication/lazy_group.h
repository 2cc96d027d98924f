#ifndef TDR_REPLICATION_LAZY_GROUP_H_
#define TDR_REPLICATION_LAZY_GROUP_H_

#include <memory>

#include "net/update_batch.h"
#include "replication/batch_shipper.h"
#include "replication/cluster.h"
#include "replication/replica_applier.h"
#include "replication/scheme.h"

namespace tdr {

/// Lazy GROUP replication (§4, Figure 4): "any node to update any local
/// data. When the transaction commits, a transaction is sent to every
/// other node to apply the root transaction's updates."
///
/// The root transaction runs locally at the origin under ordinary
/// locking. At commit, one replica-update transaction per remote node
/// carries (OID, old timestamp, new value) tuples; each destination
/// applies the timestamp-match test and counts a RECONCILIATION when it
/// fails — the instability the paper quantifies in Eq. (14)/(18).
///
/// Disconnected origins simply queue their replica updates in the
/// network outbox ("the node accepts and applies transactions for a
/// day; then at night it connects and downloads them"), so the mobile
/// analysis of Eqs. (15)-(18) falls out of the same code path.
class LazyGroupScheme : public ReplicationScheme, private TxnObserver {
 public:
  struct Options {
    /// If positive, committed updates are not shipped per transaction
    /// but accumulated in the node's out-log and flushed every
    /// `batch_interval` — how production async replication actually
    /// ships its stream. The model prices this directly: batching is a
    /// self-inflicted Disconnect_Time, so Eq. (18) predicts the
    /// reconciliation cost with Disconnect_Time := batch_interval (see
    /// the batching sweep in bench_mobile_disconnect).
    ///
    /// Superseded by the `batch` plane below for new work; kept because
    /// it models a different shape (node-wide log drain on a fixed
    /// period, no coalescing, no size cap).
    SimTime batch_interval = SimTime::Zero();
    /// Per-destination coalescing batch plane (BatchShipper). Engaged
    /// when flush_window or max_batch_updates is positive; replaces the
    /// one-message-per-commit-per-destination shipping with one
    /// UpdateBatch per stream per window, applied atomically per shard
    /// at the destination. Takes precedence over batch_interval.
    BatchShipper::Options batch{SimTime::Zero(), 0};
  };

  explicit LazyGroupScheme(Cluster* cluster)
      : LazyGroupScheme(cluster, Options()) {}
  LazyGroupScheme(Cluster* cluster, Options options);

  /// Cancels the periodic batch flushers (their callbacks capture this).
  ~LazyGroupScheme() override;

  std::string_view name() const override { return "lazy-group"; }
  bool eager() const override { return false; }
  bool group_ownership() const override { return true; }
  std::uint64_t TransactionsPerUserUpdate(
      std::uint32_t nodes) const override {
    return nodes;  // root + (N-1) replica-update transactions (Table 1)
  }

  void Submit(NodeId origin, const Program& program,
              DoneCallback done) override;

  /// With batching enabled: flushes one node's accumulated updates now
  /// (each flush ships one replica-update transaction per remote node).
  /// Called automatically every batch_interval; public for tests and
  /// for forcing a final flush at the end of a measurement window.
  void FlushBatches(NodeId origin);

  /// Flushes every node (end-of-run convenience). Drains both the
  /// legacy out-log batches and the BatchShipper streams.
  void FlushAllBatches();

  /// The coalescing batch plane; null when Options::batch is disabled.
  BatchShipper* batch_shipper() { return shipper_.get(); }

  /// Traces replica-update application (forwarded to the applier).
  void set_trace_sink(TraceSink* sink) { applier_.set_trace_sink(sink); }

  /// Reconciliations detected so far (timestamp-match failures across
  /// all replicas).
  std::uint64_t reconciliations() const { return reconciliations_; }
  /// Replica updates applied cleanly.
  std::uint64_t replica_applied() const { return replica_applied_; }

  const ReplicaApplier* replica_applier() const override { return &applier_; }

 private:
  /// Executor completion hook (set as RunOptions::observer on every
  /// root transaction): propagates committed updates. Runs before the
  /// caller's done callback, exactly where the old done-wrapper ran.
  void OnTxnDone(const TxnResult& result) override;
  void Propagate(const TxnResult& result);
  void Ship(NodeId origin, const std::vector<UpdateRecord>& records);
  void ApplyBatch(const UpdateBatch& batch);
  void ApplyAt(Node* dest, const std::vector<UpdateRecord>& records);

  Cluster* cluster_;
  Options options_;
  ReplicaApplier applier_;
  std::unique_ptr<BatchShipper> shipper_;
  /// Pooled payload buffers for unbatched shipping: each replica-update
  /// message captures a lease instead of an owned vector copy.
  net::RecordBufferPool record_pool_;
  std::vector<sim::EventId> flusher_series_;
  std::uint64_t reconciliations_ = 0;
  std::uint64_t replica_applied_ = 0;
  obs::MetricsRegistry::Counter m_reconciliations_;  // no-op, metrics off
};

}  // namespace tdr

#endif  // TDR_REPLICATION_LAZY_GROUP_H_

#ifndef TDR_REPLICATION_LAZY_MASTER_H_
#define TDR_REPLICATION_LAZY_MASTER_H_

#include <memory>
#include <vector>

#include "net/update_batch.h"
#include "replication/batch_shipper.h"
#include "replication/cluster.h"
#include "replication/ownership.h"
#include "replication/replica_applier.h"
#include "replication/scheme.h"

namespace tdr {

/// Lazy MASTER replication (§5): "Updates are first done by the owner
/// and then propagated to other replicas." The master transaction locks
/// and updates only master copies (at the owners); after commit, each
/// owner broadcasts timestamped slave updates, and slaves apply the
/// newer-wins test, ignoring stale updates so "all the replicas
/// converge to the same final state".
///
/// There are no reconciliations — conflicts resolve as waits/deadlocks
/// at the masters, at the Eq. (19) rate. The scheme is unusable by
/// disconnected nodes: Submit returns kUnavailable if any written
/// object's master is unreachable ("A node wanting to update an object
/// must be connected to the object owner").
class LazyMasterScheme : public ReplicationScheme, private TxnObserver {
 public:
  struct Options {
    /// If true, a node catches up from the masters when it reconnects or
    /// a cut link to it heals (anti-entropy): any slave refresh lost to
    /// a crash or dropped message is repaired from the master copy.
    /// Off by default — the paper's base protocol relies purely on the
    /// refresh stream, and the two-tier core manages its own catch-up.
    bool reconnect_catch_up = false;
    /// Per-destination coalescing batch plane (BatchShipper). Engaged
    /// when flush_window or max_batch_updates is positive: each master's
    /// slave refreshes park on its (master, dest) stream instead of
    /// shipping one message per commit, and the destination applies a
    /// batch atomically per shard, newer-wins.
    BatchShipper::Options batch{SimTime::Zero(), 0};
  };

  LazyMasterScheme(Cluster* cluster, const Ownership* ownership)
      : LazyMasterScheme(cluster, ownership, Options()) {}
  LazyMasterScheme(Cluster* cluster, const Ownership* ownership,
                   Options options);

  std::string_view name() const override { return "lazy-master"; }
  bool eager() const override { return false; }
  bool group_ownership() const override { return false; }
  std::uint64_t TransactionsPerUserUpdate(
      std::uint32_t nodes) const override {
    return nodes;  // master txn + (N-1) slave refresh txns (Table 1)
  }

  void Submit(NodeId origin, const Program& program,
              DoneCallback done) override;

  /// Submit with a precommit hook — the two-tier core runs base
  /// transactions through this, wiring the acceptance criterion in as
  /// the hook ("If the base transaction fails its acceptance criteria,
  /// the base transaction is aborted", §7).
  void SubmitWithPrecommit(NodeId origin, const Program& program,
                           Executor::PrecommitHook precommit,
                           DoneCallback done);

  /// Traces slave-refresh application (forwarded to the applier).
  void set_trace_sink(TraceSink* sink) { applier_.set_trace_sink(sink); }

  /// Refreshes `node`'s replica of every object from its (reachable)
  /// master copy, newer-wins. The repair path for refreshes lost to
  /// crashes or message drops.
  void CatchUpNode(NodeId node);

  /// Runs CatchUpNode at every connected node — the fault harness calls
  /// this after all partitions heal so convergence checks see the state
  /// the anti-entropy protocol would reach.
  void CatchUpAll();

  /// Ships every pending refresh batch now. No-op without the batch
  /// plane; the measurement harness calls this before convergence
  /// checks (the lazy-master analogue of LazyGroupScheme's
  /// FlushAllBatches).
  void FlushAllBatches();

  /// The coalescing batch plane; null when Options::batch is disabled.
  BatchShipper* batch_shipper() { return shipper_.get(); }

  std::uint64_t slave_updates_applied() const { return slave_applied_; }
  std::uint64_t stale_updates_ignored() const { return stale_ignored_; }
  std::uint64_t catch_up_objects() const { return catch_up_objects_; }

  const ReplicaApplier* replica_applier() const override { return &applier_; }

 private:
  /// Executor completion hook (RunOptions::observer on every master
  /// transaction): broadcasts slave refreshes on commit. Runs before
  /// the caller's done callback, exactly where the old done-wrapper ran.
  void OnTxnDone(const TxnResult& result) override;
  void Propagate(const TxnResult& result);
  void ApplyAt(Node* dest, const std::vector<UpdateRecord>& records);

  Cluster* cluster_;
  const Ownership* ownership_;
  Options options_;
  ReplicaApplier applier_;
  std::unique_ptr<BatchShipper> shipper_;
  /// Pooled payload buffers for unbatched refresh shipping.
  net::RecordBufferPool record_pool_;
  std::uint64_t slave_applied_ = 0;
  std::uint64_t stale_ignored_ = 0;
  std::uint64_t catch_up_objects_ = 0;
};

}  // namespace tdr

#endif  // TDR_REPLICATION_LAZY_MASTER_H_

#include "replication/lazy_group.h"

#include <utility>

namespace tdr {

LazyGroupScheme::LazyGroupScheme(Cluster* cluster, Options options)
    : cluster_(cluster),
      options_(options),
      applier_(&cluster->runtime(), &cluster->executor(),
               cluster->metrics_or_null()) {
  if (obs::MetricsRegistry* metrics = cluster_->metrics_or_null()) {
    m_reconciliations_ = metrics->GetCounter("lazy_group.reconciliations");
  }
  if (options_.batch.flush_window > SimTime::Zero() ||
      options_.batch.max_batch_updates > 0) {
    shipper_ = std::make_unique<BatchShipper>(
        &cluster_->runtime(), &cluster_->net(), cluster_->size(), name(),
        cluster_->metrics_or_null(), options_.batch,
        [this](const UpdateBatch& batch) { ApplyBatch(batch); });
  }
  if (options_.batch_interval > SimTime::Zero()) {
    for (NodeId origin = 0; origin < cluster_->size(); ++origin) {
      flusher_series_.push_back(cluster_->runtime().RepeatEvery(
          options_.batch_interval,
          [this, origin]() { FlushBatches(origin); }));
    }
  }
}

LazyGroupScheme::~LazyGroupScheme() {
  for (sim::EventId series : flusher_series_) {
    cluster_->runtime().Cancel(series);
  }
}

void LazyGroupScheme::Submit(NodeId origin, const Program& program,
                             DoneCallback done) {
  // The root transaction is purely local — that is the whole point of
  // lazy replication ("One replica is updated by the originating
  // transaction", Figure 1). A disconnected mobile node can still run it.
  // Propagation hangs off the observer hook rather than a wrapper
  // around `done`, so submission allocates nothing.
  Executor::RunOptions opts;
  opts.action_time = cluster_->options().action_time;
  opts.record_updates = true;
  opts.observer = this;
  LocalPlanInto(origin, program, &cluster_->executor().NewPlan());
  cluster_->executor().RunPlan(origin, std::move(opts), std::move(done));
}

void LazyGroupScheme::OnTxnDone(const TxnResult& result) {
  if (result.outcome == TxnOutcome::kCommitted) Propagate(result);
}

void LazyGroupScheme::Propagate(const TxnResult& result) {
  if (result.updates.empty()) return;
  if (shipper_ != nullptr) {
    // Coalescing batch plane: park the updates on every per-destination
    // stream; the shipper's window/size-cap events ship them.
    for (NodeId dest = 0; dest < cluster_->size(); ++dest) {
      if (dest == result.origin) continue;
      shipper_->Enqueue(result.origin, dest, result.updates);
    }
    return;
  }
  if (options_.batch_interval > SimTime::Zero()) {
    // Batched shipping: park the records in the node's out-log; the
    // periodic flusher drains them.
    Node* origin_node = cluster_->node(result.origin);
    for (const UpdateRecord& rec : result.updates) {
      origin_node->out_log().Append(rec);
    }
    return;
  }
  Ship(result.origin, result.updates);
}

void LazyGroupScheme::FlushBatches(NodeId origin) {
  Node* node = cluster_->node(origin);
  if (node->out_log().empty()) return;
  cluster_->metrics().Increment("lazy_group.batches");
  Ship(origin, node->out_log().DrainAll());
}

void LazyGroupScheme::FlushAllBatches() {
  for (NodeId origin = 0; origin < cluster_->size(); ++origin) {
    FlushBatches(origin);
  }
  if (shipper_ != nullptr) shipper_->FlushAll();
}

void LazyGroupScheme::Ship(NodeId origin,
                           const std::vector<UpdateRecord>& records) {
  // One replica-update transaction per remote node (Figure 1's "three
  // transactions"). If the origin is disconnected, Network queues these
  // in its outbox until reconnect — the 24-hour-propagation-delay effect
  // of §4's mobile scenario. Each message carries a pooled payload
  // lease; the handler reads it without consuming (it may legally be
  // invoked more than once under duplicate delivery), and the lease
  // recycles the buffer when the message record is released.
  for (NodeId dest = 0; dest < cluster_->size(); ++dest) {
    if (dest == origin) continue;
    Node* dest_node = cluster_->node(dest);
    net::RecordBufferPool::Lease payload = record_pool_.Acquire();
    *payload = records;
    cluster_->net().Send(
        origin, dest,
        [this, dest_node, payload = std::move(payload)]() {
          ApplyAt(dest_node, *payload);
        });
  }
}

void LazyGroupScheme::ApplyBatch(const UpdateBatch& batch) {
  ApplyAt(cluster_->node(batch.dest), batch.updates);
}

void LazyGroupScheme::ApplyAt(Node* dest,
                              const std::vector<UpdateRecord>& records) {
  ReplicaApplier::Options aopts;
  aopts.action_time = cluster_->options().action_time;
  aopts.mode = ReplicaApplier::Mode::kTimestampMatch;
  aopts.shards = &cluster_->shards();
  applier_.Apply(dest, records, aopts,
                 [this](const ReplicaApplier::Report& report) {
                   reconciliations_ += report.conflicts;
                   replica_applied_ += report.applied;
                   m_reconciliations_.Increment(report.conflicts);
                 });
}

}  // namespace tdr

#ifndef TDR_REPLICATION_SCHEME_H_
#define TDR_REPLICATION_SCHEME_H_

#include <cstdint>
#include <string>

#include "obs/metrics.h"
#include "txn/executor.h"
#include "txn/program.h"

namespace tdr {

class ReplicaApplier;

/// Interface every replication strategy implements — the Table 1
/// taxonomy made executable. Submit() runs one user transaction under
/// the scheme's rules; everything else (replica propagation, conflict
/// tests, reconciliation bookkeeping) happens behind it in simulated
/// time.
class ReplicationScheme {
 public:
  using DoneCallback = Executor::DoneCallback;

  virtual ~ReplicationScheme() = default;

  virtual std::string_view name() const = 0;

  /// Table 1 row: eager (updates in the user transaction) vs lazy.
  virtual bool eager() const = 0;

  /// Table 1 column: group (update anywhere) vs master ownership.
  virtual bool group_ownership() const = 0;

  /// Transactions a single user update ultimately causes, as a function
  /// of N nodes (Table 1: "N transactions" vs "one transaction").
  virtual std::uint64_t TransactionsPerUserUpdate(
      std::uint32_t nodes) const = 0;

  /// Runs one user transaction originating at `origin`. `done` fires
  /// exactly once in simulated time with the user-visible outcome (for
  /// lazy schemes, that is the root/master transaction's outcome; replica
  /// propagation continues afterwards).
  virtual void Submit(NodeId origin, const Program& program,
                      DoneCallback done) = 0;

  /// Submissions refused with kUnavailable so far. Counted whether or
  /// not the cluster has a metrics registry.
  std::uint64_t unavailable() const { return unavailable_; }

  /// The applier running this scheme's replica-update transactions, or
  /// null for schemes without one (the eager family).
  virtual const ReplicaApplier* replica_applier() const { return nullptr; }

 protected:
  /// Counts one kUnavailable refusal; `metrics` (null when metrics are
  /// off) also gets it as `scheme.unavailable`.
  void CountUnavailable(obs::MetricsRegistry* metrics) {
    ++unavailable_;
    if (metrics != nullptr) metrics->Increment("scheme.unavailable");
  }

 private:
  std::uint64_t unavailable_ = 0;
};

}  // namespace tdr

#endif  // TDR_REPLICATION_SCHEME_H_

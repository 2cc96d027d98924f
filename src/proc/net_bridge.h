#ifndef TDR_PROC_NET_BRIDGE_H_
#define TDR_PROC_NET_BRIDGE_H_

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "net/network.h"
#include "proc/socket_transport.h"
#include "runtime/runtime.h"
#include "sim/simulator.h"

namespace tdr::proc {

/// The multi-process backend's Network::DeliveryHook: in a child
/// process owning node `owned`, every cross-node delivery whose origin
/// is the owned node SHIPS a frame to the destination's process, and
/// every delivery destined to the owned node BLOCKS until the matching
/// frame arrives from the origin's process and verifies it field by
/// field — endpoints, per-(origin, dest) sequence number, virtual
/// delivery time, merged duplicate count, and the executed-event
/// schedule fingerprint.
///
/// Because every child executes the same recorded (time, seq) event
/// schedule (DESIGN.md §13's oracle construction, re-used at §15), the
/// two owners observe each delivery at the same point of the same
/// total order; the socket hop is therefore deadlock-free (the sender
/// side never blocks, and a blocked receiver's transport keeps
/// draining all peers) and any disagreement — a lost, reordered,
/// duplicated, truncated, or corrupted frame — is caught at the exact
/// delivery that diverged, not as a digest mismatch 10^5 events later.
class NetBridge : public Network::DeliveryHook {
 public:
  /// How long a receive rendezvous may stall before the run is
  /// declared wedged (a peer process died or desynced).
  static constexpr int kWaitTimeoutMs = 60000;

  /// `on_fatal` is invoked (with a diagnosis) on any verification or
  /// transport failure; it must not return (the child reports the
  /// error on its control pipe and exits). `sim` provides the
  /// executed-event fingerprint; `rt` the virtual clock.
  NetBridge(std::uint32_t owned, std::uint32_t num_nodes,
            SocketTransport* transport, runtime::Runtime* rt,
            const sim::Simulator* sim,
            std::function<void(const std::string&)> on_fatal);

  void OnDeliver(NodeId from, NodeId to, std::uint32_t copies) override;

  std::uint64_t shipped() const { return shipped_; }
  std::uint64_t verified() const { return verified_; }
  /// Deliveries between two remote nodes (observed but no socket work).
  std::uint64_t observed_remote() const { return observed_remote_; }

 private:
  [[noreturn]] void Fatal(const std::string& why);
  std::uint64_t NextSeq(NodeId from, NodeId to) {
    return ++pair_seq_[static_cast<std::size_t>(from) * num_nodes_ + to];
  }

  std::uint32_t owned_;
  std::uint32_t num_nodes_;
  SocketTransport* transport_;
  runtime::Runtime* rt_;
  const sim::Simulator* sim_;
  std::function<void(const std::string&)> on_fatal_;
  std::vector<std::uint64_t> pair_seq_;  // num_nodes^2 delivery counters
  std::uint64_t shipped_ = 0;
  std::uint64_t verified_ = 0;
  std::uint64_t observed_remote_ = 0;
};

}  // namespace tdr::proc

#endif  // TDR_PROC_NET_BRIDGE_H_

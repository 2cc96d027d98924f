#include "proc/net_bridge.h"

#include "util/logging.h"

namespace tdr::proc {

NetBridge::NetBridge(std::uint32_t owned, std::uint32_t num_nodes,
                     SocketTransport* transport, runtime::Runtime* rt,
                     const sim::Simulator* sim,
                     std::function<void(const std::string&)> on_fatal)
    : owned_(owned),
      num_nodes_(num_nodes),
      transport_(transport),
      rt_(rt),
      sim_(sim),
      on_fatal_(std::move(on_fatal)),
      pair_seq_(static_cast<std::size_t>(num_nodes) * num_nodes, 0) {}

void NetBridge::Fatal(const std::string& why) {
  on_fatal_(why);
  // on_fatal must not return; if it does, we cannot continue executing
  // a schedule the peers no longer agree with.
  TDR_LOG_ERROR("NetBridge fatal handler returned: %s", why.c_str());
  ::abort();
}

void NetBridge::OnDeliver(NodeId from, NodeId to, std::uint32_t copies) {
  // Every child advances the same per-pair counter on every cross-node
  // delivery it observes, whether or not it owns an endpoint — that is
  // what lets the receiving side predict the exact sequence number the
  // sender stamped.
  const std::uint64_t seq = NextSeq(from, to);
  if (from != owned_ && to != owned_) {
    ++observed_remote_;
    return;
  }
  Frame expect;
  expect.kind = FrameKind::kDeliver;
  expect.origin = from;
  expect.dest = to;
  expect.pair_seq = seq;
  expect.time_us = rt_->Now().micros();
  expect.copies = copies;
  expect.schedule_fp = sim_->executed_events();
  if (from == owned_) {
    if (!transport_->Send(to, expect)) {
      Fatal(StrPrintf("node %u: ship of %s failed: %s", owned_,
                      expect.ToString().c_str(),
                      transport_->error().c_str()));
    }
    ++shipped_;
    return;
  }
  // to == owned_: block until the origin's process ships the matching
  // frame, then verify every field against the locally computed
  // expectation. Frames per pair socket are FIFO, so the head frame
  // must BE this delivery — anything else is a desync.
  Frame got;
  if (!transport_->WaitFrame(from, &got, kWaitTimeoutMs)) {
    Fatal(StrPrintf("node %u: no frame from node %u for %s: %s", owned_,
                    from, expect.ToString().c_str(),
                    transport_->error().c_str()));
  }
  if (!(got == expect)) {
    Fatal(StrPrintf("node %u: delivery mismatch: expected %s got %s",
                    owned_, expect.ToString().c_str(),
                    got.ToString().c_str()));
  }
  ++verified_;
}

}  // namespace tdr::proc

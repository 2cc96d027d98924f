#include "perfledger/layers.h"

#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

#include "proc/frame.h"
#include "replication/batch_shipper.h"
#include "replication/cluster.h"
#include "runtime/thread_runtime.h"
#include "sim/simulator.h"
#include "storage/object_store.h"
#include "txn/lock_manager.h"
#include "txn/wait_for_graph.h"
#include "wal/wal.h"
#include "wal/wal_file.h"
#include "wal/wal_recovery.h"
#include "workload/workload.h"

namespace tdr::perfledger {

namespace {

using Clock = std::chrono::steady_clock;

constexpr int kReps = 5;

/// Median over kReps of `rep()`, which returns ns per call of one timed
/// repetition.
template <typename Rep>
double MedianNs(Rep&& rep) {
  std::vector<double> ns;
  for (int i = 0; i < kReps; ++i) ns.push_back(rep());
  std::sort(ns.begin(), ns.end());
  return ns[ns.size() / 2];
}

double NsPer(Clock::time_point start, std::uint64_t calls) {
  const double ns =
      std::chrono::duration<double, std::nano>(Clock::now() - start).count();
  return calls > 0 ? ns / static_cast<double>(calls) : 0;
}

/// Keeps a computed value observable so the timed loop is not dropped.
void Consume(std::uint64_t v) {
  if (v == 0x5eed5eed5eed5eedULL) std::abort();
}

/// Distinct objects per transaction, uniform over db_size.
std::vector<ObjectId> TxnObjects(Rng& rng, std::uint64_t db_size,
                                 std::uint32_t actions, std::size_t txns) {
  std::vector<ObjectId> out;
  out.reserve(txns * actions);
  std::vector<std::uint64_t> pick;
  for (std::size_t t = 0; t < txns; ++t) {
    rng.SampleWithoutReplacementInto(db_size, actions, &pick);
    for (std::uint64_t oid : pick) out.push_back(oid);
  }
  return out;
}

/// Hold model: every fired event schedules one successor, so the queue
/// stays at its initial depth. Gaps average `depth` micros, which keeps
/// roughly one event per simulated microsecond.
struct Hold {
  runtime::Runtime* rt = nullptr;
  Rng rng;
  std::uint32_t nodes = 1;
  bool tagged = false;
  std::uint64_t mean_gap_us = 1;
  std::uint64_t fired = 0;

  void Schedule() {
    const SimTime gap =
        SimTime::Micros(1 + static_cast<std::int64_t>(
                                rng.UniformInt(2 * mean_gap_us)));
    if (tagged) {
      const auto node = static_cast<std::uint32_t>(rng.UniformInt(nodes));
      rt->ScheduleAfterNode(node, gap, [this] { Fire(); });
    } else {
      rt->ScheduleAfter(gap, [this] { Fire(); });
    }
  }
  void Fire() {
    ++fired;
    Schedule();
  }
};

double HoldNsPerEvent(runtime::Runtime* rt, Hold* hold, std::size_t depth,
                      std::uint64_t events_per_rep) {
  hold->rt = rt;
  hold->mean_gap_us = std::max<std::size_t>(depth, 1);
  for (std::size_t i = 0; i < depth; ++i) hold->Schedule();
  const std::int64_t horizon_us = static_cast<std::int64_t>(events_per_rep);
  return MedianNs([&] {
    const std::uint64_t before = hold->fired;
    const Clock::time_point t = Clock::now();
    rt->RunUntil(rt->Now() + SimTime::Micros(horizon_us));
    return NsPer(t, hold->fired - before);
  });
}

double SimNsPerEvent(const LayerShape& s, std::uint64_t seed) {
  sim::Simulator sim;
  Hold hold{.rng = Rng(seed, 11)};
  return HoldNsPerEvent(&sim, &hold, s.pending_depth, 200000);
}

double RuntimeNsPerDispatch(const LayerShape& s, std::uint64_t seed) {
  // One worker per node plus the coordinator, within the host's cores.
  const unsigned cores = std::max(2u, std::thread::hardware_concurrency());
  const std::uint32_t workers = std::min<std::uint32_t>(s.nodes, cores - 1);
  sim::Simulator clock;
  Hold hold{.rng = Rng(seed, 12), .nodes = workers, .tagged = true};
  runtime::ThreadRuntime::Options o;
  o.dispatch = runtime::ThreadRuntime::DispatchMode::kEpoch;
  runtime::ThreadRuntime rt(&clock, workers, o, nullptr);
  const double ns = HoldNsPerEvent(&rt, &hold, s.pending_depth, 1500);
  rt.Shutdown();
  return ns;
}

double LockNsPerTxn(const LayerShape& s, std::uint64_t seed) {
  constexpr std::size_t kTxns = 20000;
  Rng rng(seed, 13);
  const std::vector<ObjectId> oids =
      TxnObjects(rng, s.db_size, s.actions, kTxns);
  WaitForGraph graph;
  LockManager locks(0, s.db_size, &graph);
  TxnId next = 1;
  return MedianNs([&] {
    const Clock::time_point t = Clock::now();
    for (std::size_t i = 0; i < kTxns; ++i) {
      const TxnId txn = next++;
      for (std::uint32_t a = 0; a < s.actions; ++a) {
        locks.Acquire(txn, oids[i * s.actions + a], nullptr);
      }
      locks.ReleaseAll(txn);
    }
    return NsPer(t, kTxns);
  });
}

double CycleCheckNs() {
  constexpr std::size_t kChains = 64;
  constexpr std::size_t kCalls = 100000;
  WaitForGraph graph;
  // Holders that themselves wait: each check walks a two-edge chain.
  for (TxnId k = 0; k < kChains; ++k) graph.AddEdge(2000 + k, 3000 + k);
  std::uint64_t cycles = 0;
  const double ns = MedianNs([&] {
    const Clock::time_point t = Clock::now();
    for (std::size_t i = 0; i < kCalls; ++i) {
      const TxnId waiter = 10 + i % 1000;
      const TxnId holder = 2000 + i % kChains;
      graph.AddEdge(waiter, holder);
      cycles += graph.HasCycleFrom(waiter) ? 1 : 0;
      graph.RemoveEdge(waiter, holder);
    }
    return NsPer(t, kCalls);
  });
  Consume(cycles + graph.EdgeCount());
  return ns;
}

double StoreNsPerWrite(const LayerShape& s, std::uint64_t seed) {
  constexpr std::size_t kWrites = 400000;
  Rng rng(seed, 14);
  std::vector<ObjectId> oids(kWrites);
  for (ObjectId& oid : oids) oid = rng.UniformInt(s.db_size);
  ObjectStore store(s.db_size);
  std::uint64_t counter = 1;
  const double ns = MedianNs([&] {
    const Clock::time_point t = Clock::now();
    for (ObjectId oid : oids) {
      StoredObject& o = store.GetMutable(oid);
      o.value = Value(static_cast<std::int64_t>(counter));
      o.ts = Timestamp{counter, 0};
      ++counter;
    }
    return NsPer(t, kWrites);
  });
  Consume(store.Digest());
  return ns;
}

Cluster::Options BareCluster(const LayerShape& s, std::uint64_t seed) {
  Cluster::Options o;
  o.num_nodes = std::max<std::uint32_t>(s.nodes, 2);
  o.db_size = 1;
  o.seed = seed;
  o.enable_metrics = false;
  return o;
}

double NetNsPerMsg(const LayerShape& s, std::uint64_t seed) {
  constexpr std::size_t kMsgs = 100000;
  Cluster cluster(BareCluster(s, seed));
  const std::uint32_t n = cluster.size();
  std::uint64_t delivered = 0;
  const double ns = MedianNs([&] {
    const Clock::time_point t = Clock::now();
    for (std::size_t i = 0; i < kMsgs; ++i) {
      const auto from = static_cast<NodeId>(i % n);
      cluster.net().Send(from, (from + 1) % n, [&delivered] { ++delivered; });
    }
    cluster.runtime().Run();
    return NsPer(t, kMsgs);
  });
  Consume(delivered);
  return ns;
}

double BatchNs(const LayerShape& s, std::uint64_t seed) {
  constexpr std::size_t kBatches = 10000;
  Cluster cluster(BareCluster(s, seed));
  BatchShipper::Options bo;
  bo.flush_window = SimTime::Seconds(1);
  bo.max_batch_updates = 0;
  std::uint64_t delivered = 0;
  BatchShipper shipper(&cluster.runtime(), &cluster.net(), cluster.size(),
                       "perfledger", nullptr, bo,
                       [&delivered](const UpdateBatch& b) {
                         delivered += b.size();
                       });
  std::vector<UpdateRecord> records(std::max<std::size_t>(
      s.updates_per_batch, 1));
  std::uint64_t counter = 1;
  const double ns = MedianNs([&] {
    const Clock::time_point t = Clock::now();
    for (std::size_t b = 0; b < kBatches; ++b) {
      for (std::size_t r = 0; r < records.size(); ++r) {
        UpdateRecord& rec = records[r];
        rec.txn = counter;
        rec.oid = r;  // distinct objects: nothing coalesces
        rec.old_ts = Timestamp{counter - 1, 0};
        rec.new_ts = Timestamp{counter, 0};
        rec.new_value = Value(static_cast<std::int64_t>(counter));
        rec.origin = 0;
        ++counter;
      }
      shipper.Enqueue(0, 1, records.data(), records.size());
      shipper.Flush(0, 1);
    }
    cluster.runtime().Run();
    return NsPer(t, kBatches);
  });
  Consume(delivered);
  return ns;
}

void WalCosts(const LayerShape& s, LayerCosts* out) {
  constexpr std::uint64_t kRecords = 20000;
  const std::uint64_t per_flush = std::max<std::size_t>(s.records_per_flush, 1);
  std::vector<double> append_ns;
  std::vector<double> recover_ns;
  for (int rep = 0; rep < kReps; ++rep) {
    wal::MemWalBackend backend(1);
    wal::Wal log(0, &backend, wal::Wal::Options{});
    log.Open(1);
    Clock::time_point t = Clock::now();
    for (std::uint64_t i = 1; i <= kRecords; ++i) {
      log.Append(i, i % s.db_size, 0, Timestamp{i - 1, 0}, Timestamp{i, 0},
                 Value(static_cast<std::int64_t>(i)));
      if (i % per_flush == 0) log.CompleteFlush(log.BeginFlush());
    }
    log.CompleteFlush(log.BeginFlush());
    append_ns.push_back(NsPer(t, kRecords));

    wal::WalRecovery recovery(&backend);
    std::uint64_t lsn_sum = 0;
    t = Clock::now();
    const wal::RecoveryResult r = recovery.Recover(
        0, [&lsn_sum](const wal::WalRecord& rec) { lsn_sum += rec.lsn; });
    recover_ns.push_back(NsPer(t, r.records_replayed));
    Consume(lsn_sum);
  }
  std::sort(append_ns.begin(), append_ns.end());
  std::sort(recover_ns.begin(), recover_ns.end());
  out->wal_ns_per_append = append_ns[kReps / 2];
  out->wal_recover_ns_per_record = recover_ns[kReps / 2];
}

double FrameNs(std::uint64_t seed) {
  constexpr std::size_t kFrames = 100000;
  Rng rng(seed, 16);
  proc::Frame frame;
  frame.kind = proc::FrameKind::kDeliver;
  frame.origin = 0;
  frame.dest = 1;
  frame.schedule_fp = rng.Next64();
  proc::FrameDecoder decoder;
  proc::Frame decoded;
  std::string wire;
  std::uint64_t seq_sum = 0;
  const double ns = MedianNs([&] {
    const Clock::time_point t = Clock::now();
    for (std::size_t i = 0; i < kFrames; ++i) {
      frame.pair_seq = i;
      frame.time_us = static_cast<std::int64_t>(i * 17);
      wire.clear();
      proc::EncodeFrame(frame, &wire);
      decoder.Feed(wire.data(), wire.size());
      if (decoder.Next(&decoded) != proc::FrameDecoder::Status::kFrame) {
        std::abort();
      }
      seq_sum += decoded.pair_seq;
    }
    return NsPer(t, kFrames);
  });
  Consume(seq_sum);
  return ns;
}

/// Writes `n` bytes to `fd`, reads `n` back; false on any short or
/// failed call.
bool PingPong(int fd, char* buf, std::size_t n) {
  return ::write(fd, buf, n) == static_cast<ssize_t>(n) &&
         ::read(fd, buf, n) == static_cast<ssize_t>(n);
}

double WakeupNs() {
  constexpr std::size_t kRoundTrips = 1000;
  // One delivery frame's worth of bytes.
  constexpr std::size_t kBytes = proc::kFrameHeaderBytes +
                                 proc::kFrameFixedBodyBytes;
  int fds[2];
  if (::socketpair(AF_UNIX, SOCK_STREAM, 0, fds) != 0) std::abort();
  std::thread echo([fd = fds[1]] {
    char buf[kBytes];
    for (int rep = 0; rep < kReps; ++rep) {
      for (std::size_t i = 0; i < kRoundTrips; ++i) {
        if (::read(fd, buf, kBytes) != static_cast<ssize_t>(kBytes) ||
            ::write(fd, buf, kBytes) != static_cast<ssize_t>(kBytes)) {
          std::abort();
        }
      }
    }
  });
  char buf[kBytes] = {};
  const double ns = MedianNs([&] {
    const Clock::time_point t = Clock::now();
    for (std::size_t i = 0; i < kRoundTrips; ++i) {
      if (!PingPong(fds[0], buf, kBytes)) std::abort();
    }
    return NsPer(t, 2 * kRoundTrips);
  });
  echo.join();
  ::close(fds[0]);
  ::close(fds[1]);
  return ns;
}

double ProgramNs(const LayerShape& s, std::uint64_t seed) {
  constexpr std::size_t kPrograms = 100000;
  ProgramGenerator::Options go;
  go.db_size = s.db_size;
  go.actions = s.actions;
  ProgramGenerator gen(go);
  Rng rng(seed, 17);
  Program program;
  std::uint64_t steps = 0;
  const double ns = MedianNs([&] {
    const Clock::time_point t = Clock::now();
    for (std::size_t i = 0; i < kPrograms; ++i) {
      gen.NextInto(rng, &program);
      steps += program.size();
    }
    return NsPer(t, kPrograms);
  });
  Consume(steps);
  return ns;
}

}  // namespace

LayerCosts MeasureLayers(const LayerShape& shape, std::uint64_t seed) {
  LayerCosts c;
  c.sim_ns_per_event = SimNsPerEvent(shape, seed);
  c.runtime_ns_per_dispatch = RuntimeNsPerDispatch(shape, seed);
  c.txn_ns_per_lock_txn = LockNsPerTxn(shape, seed);
  c.txn_ns_per_cycle_check = CycleCheckNs();
  c.storage_ns_per_write = StoreNsPerWrite(shape, seed);
  c.net_ns_per_msg = NetNsPerMsg(shape, seed);
  c.replication_ns_per_batch = BatchNs(shape, seed);
  WalCosts(shape, &c);
  c.proc_ns_per_frame = FrameNs(seed);
  c.proc_ns_per_wakeup = WakeupNs();
  c.workload_ns_per_program = ProgramNs(shape, seed);
  return c;
}

}  // namespace tdr::perfledger

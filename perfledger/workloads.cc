#include "perfledger/workloads.h"

#include <sys/resource.h>

#include <chrono>
#include <cstdio>
#include <memory>
#include <optional>

#include "bench/proc_harness.h"
#include "fault/invariant_checker.h"
#include "replication/driver.h"
#include "replication/eager.h"
#include "replication/lazy_group.h"
#include "replication/ownership.h"
#include "util/logging.h"
#include "wal/wal_file.h"
#include "wal/wal_recovery.h"

namespace tdr::perfledger {

namespace {

using Clock = std::chrono::steady_clock;

double Since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

double CpuSeconds(int who) {
  rusage ru{};
  getrusage(who, &ru);
  auto tv = [](const timeval& t) {
    return static_cast<double>(t.tv_sec) +
           static_cast<double>(t.tv_usec) * 1e-6;
  };
  return tv(ru.ru_utime) + tv(ru.ru_stime);
}

/// CPU of this process plus every child it has reaped.
double ProcessTreeCpu() {
  return CpuSeconds(RUSAGE_SELF) + CpuSeconds(RUSAGE_CHILDREN);
}

Cluster::Options ClusterOptions(const Workload& w, std::uint64_t seed,
                                const EpisodeOptions& opt) {
  Cluster::Options o;
  o.num_nodes = w.nodes;
  o.db_size = w.db_size;
  o.action_time = SimTime::Seconds(w.action_time_s);
  o.seed = seed;
  o.enable_metrics = opt.metrics;
  if (opt.backend == Backend::kThreads) {
    o.backend = RuntimeBackend::kThreads;
    o.runtime.dispatch = runtime::ThreadRuntime::DispatchMode::kEpoch;
  }
  if (w.wal) {
    o.wal.mode = DurabilityMode::kGroup;
    o.wal.flush_latency = SimTime::Seconds(kWalFlushS);
    o.wal.group_window = SimTime::Seconds(kWalGroupWindowS);
    o.wal.group_max_records = kWalGroupMax;
  }
  return o;
}

ProgramGenerator::Options GeneratorOptions(const Workload& w) {
  ProgramGenerator::Options o;
  o.db_size = w.db_size;
  o.actions = w.actions;
  return o;
}

/// Closed-loop clients: each submits its next transaction the moment
/// the previous one finishes (committed or aborted), until `stop_at`.
class ClosedLoop {
 public:
  ClosedLoop(Cluster* cluster, ReplicationScheme* scheme,
             const Workload& w, SimTime stop_at)
      : cluster_(cluster),
        scheme_(scheme),
        gen_(GeneratorOptions(w)),
        rng_(cluster->ForkRng()),
        stop_at_(stop_at) {}

  void Launch(NodeId node) {
    gen_.NextInto(rng_, &scratch_);
    ++submitted_;
    scheme_->Submit(node, scratch_, [this, node](const TxnResult&) {
      if (cluster_->runtime().Now() < stop_at_) Launch(node);
    });
  }

  std::uint64_t submitted() const { return submitted_; }

 private:
  Cluster* cluster_;
  ReplicationScheme* scheme_;
  ProgramGenerator gen_;
  Rng rng_;
  Program scratch_;
  SimTime stop_at_;
  std::uint64_t submitted_ = 0;
};

/// Counter values at one instant; a window is the difference of two.
struct Snap {
  std::uint64_t committed = 0, deadlocked = 0, rejected = 0, waits = 0;
  std::uint64_t reconciliations = 0, submitted = 0;
  std::uint64_t events = 0, waves = 0, runtime_events = 0;
  std::uint64_t lock_waits = 0, replica_waits = 0, net_sent = 0;
  std::uint64_t batches = 0, batch_updates = 0, applied = 0, conflicts = 0;
  std::uint64_t wal_records = 0, wal_flushes = 0;
  std::uint64_t acquire_calls = 0, apply_calls = 0;
  double acquire_us = 0, apply_us = 0, wal_bytes = 0;
};

double WalBytes(Cluster& cluster) {
  if (cluster.wals() == nullptr) return 0;
  auto* mem = dynamic_cast<wal::MemWalBackend*>(cluster.wals()->backend());
  if (mem == nullptr) return 0;
  double bytes = 0;
  for (NodeId n = 0; n < cluster.size(); ++n) {
    for (std::uint32_t s = 0; s < mem->SegmentCount(n); ++s) {
      bytes += static_cast<double>(mem->SegmentBytes(n, s)->size());
    }
  }
  return bytes;
}

/// `lazy` and `loop` may be null: what they count stays 0.
Snap Take(Cluster& cluster, LazyGroupScheme* lazy, const ClosedLoop* loop) {
  Snap s;
  s.committed = cluster.executor().committed();
  s.deadlocked = cluster.executor().deadlocked();
  s.rejected = cluster.executor().rejected();
  for (NodeId n = 0; n < cluster.size(); ++n) {
    s.waits += cluster.node(n)->locks().total_waits();
  }
  s.reconciliations = lazy != nullptr ? lazy->reconciliations() : 0;
  s.submitted = loop != nullptr ? loop->submitted() : 0;
  s.events = cluster.sim().executed_events();
  if (const runtime::ThreadRuntime* rt = cluster.thread_runtime()) {
    s.waves = rt->epochs();
    s.runtime_events = rt->dispatched() + rt->inline_events();
  }
  obs::MetricsRegistry& m = cluster.metrics();
  s.lock_waits = m.Get("lock.waits");
  s.replica_waits = m.Get("replica.waits");
  s.net_sent = m.Get("net.sent");
  if (lazy != nullptr && lazy->batch_shipper() != nullptr) {
    s.batches = lazy->batch_shipper()->batches_shipped();
    s.batch_updates = lazy->batch_shipper()->updates_shipped();
  }
  s.applied = m.Get("replica.applied");
  s.conflicts = m.Get("replica.conflicts");
  s.wal_records = m.Get("wal.records_appended");
  s.wal_flushes = m.Get("wal.flushes");
  if (const OnlineStats* st = m.GetProfile("profile.lock_acquire").stats()) {
    s.acquire_calls = st->count();
    s.acquire_us = st->sum();
  }
  if (const OnlineStats* st = m.GetProfile("profile.replica_apply").stats()) {
    s.apply_calls = st->count();
    s.apply_us = st->sum();
  }
  s.wal_bytes = WalBytes(cluster);
  return s;
}

double Delta(std::uint64_t after, std::uint64_t before) {
  return static_cast<double>(after - before);
}

LayerCounts Counts(const Snap& a, const Snap& b, double pending_depth) {
  LayerCounts c;
  c.committed = Delta(b.committed, a.committed);
  c.events = Delta(b.events, a.events);
  c.pending_depth = pending_depth;
  c.runtime_waves = Delta(b.waves, a.waves);
  c.runtime_events = Delta(b.runtime_events, a.runtime_events);
  c.lock_waits = Delta(b.lock_waits, a.lock_waits);
  c.replica_waits = Delta(b.replica_waits, a.replica_waits);
  c.deadlocks = Delta(b.deadlocked, a.deadlocked);
  c.executor_steps = Delta(b.acquire_calls, a.acquire_calls);
  c.executor_step_us = b.acquire_us - a.acquire_us;
  c.net_msgs = Delta(b.net_sent, a.net_sent);
  c.batches = Delta(b.batches, a.batches);
  c.batch_updates = Delta(b.batch_updates, a.batch_updates);
  c.replica_applies = Delta(b.applied, a.applied);
  c.replica_apply_calls = Delta(b.apply_calls, a.apply_calls);
  c.replica_apply_us = b.apply_us - a.apply_us;
  c.conflicts = Delta(b.conflicts, a.conflicts);
  c.wal_records = Delta(b.wal_records, a.wal_records);
  c.wal_flushes = Delta(b.wal_flushes, a.wal_flushes);
  c.wal_bytes = b.wal_bytes - a.wal_bytes;
  return c;
}

Fingerprint Digests(Cluster& cluster) {
  Fingerprint fp;
  fp.state_digest = cluster.StateDigest();
  for (ShardId s = 0; s < cluster.shards().num_shards(); ++s) {
    for (std::uint64_t d : cluster.ShardDigests(s)) {
      fp.shard_digests.push_back(d);
    }
  }
  return fp;
}

Episode RunInProcess(const Workload& w, std::uint64_t seed,
                     const EpisodeOptions& opt) {
  Episode ep;
  const Clock::time_point start = Clock::now();
  Cluster cluster(ClusterOptions(w, seed, opt));

  std::unique_ptr<ReplicationScheme> scheme;
  LazyGroupScheme* lazy = nullptr;
  if (w.eager_closed) {
    scheme = std::make_unique<EagerGroupScheme>(&cluster);
  } else {
    LazyGroupScheme::Options lo;
    if (w.batch_window_s > 0) {
      lo.batch = BatchShipper::Options{};
      lo.batch.flush_window = SimTime::Seconds(w.batch_window_s);
    }
    auto lg = std::make_unique<LazyGroupScheme>(&cluster, lo);
    lazy = lg.get();
    scheme = std::move(lg);
  }

  std::vector<NodeId> all_nodes(w.nodes);
  for (std::uint32_t i = 0; i < w.nodes; ++i) all_nodes[i] = i;
  const Ownership ownership = Ownership::RoundRobin(w.db_size, all_nodes);
  std::unique_ptr<fault::InvariantChecker> checker;
  if (opt.checker) {
    fault::InvariantChecker::Options co;
    co.scheme = w.eager_closed ? fault::SchemeClass::kEagerGroup
                               : fault::SchemeClass::kLazyGroup;
    co.ownership = &ownership;
    co.check_interval = SimTime::Seconds((w.warmup_s + w.window_s) / 20);
    co.abort_on_unchecked = false;
    checker = std::make_unique<fault::InvariantChecker>(&cluster, co);
    checker->Arm();
  }

  const SimTime window_start = SimTime::Seconds(w.warmup_s);
  const SimTime window_end = SimTime::Seconds(w.warmup_s + w.window_s);
  WorkloadDriver::Options dopts;
  dopts.tps_per_node = w.tps_per_node;
  dopts.workload.db_size = w.db_size;
  dopts.workload.actions = w.actions;
  std::optional<WorkloadDriver> warm;
  std::optional<WorkloadDriver> driver;
  std::optional<ClosedLoop> loop;
  if (w.eager_closed) {
    loop.emplace(&cluster, scheme.get(), w, window_end);
    for (NodeId node = 0; node < w.nodes; ++node) {
      for (std::uint32_t c = 0; c < w.clients_per_node; ++c) {
        loop->Launch(node);
      }
    }
    cluster.runtime().RunUntil(window_start);
  } else {
    if (w.warmup_s > 0) {
      dopts.seconds = w.warmup_s;
      warm.emplace(&cluster, scheme.get(), dopts);
      (void)warm->Run();
    }
    dopts.seconds = w.window_s;
    driver.emplace(&cluster, scheme.get(), dopts);
  }

  const Snap before = Take(cluster, lazy, loop ? &*loop : nullptr);
  ep.setup_s = Since(start);
  const double cpu_before = ProcessTreeCpu();
  const Clock::time_point window = Clock::now();
  WorkloadDriver::Outcome out;
  if (driver) {
    out = driver->Run();
  } else {
    cluster.runtime().RunUntil(window_end);
  }
  ep.window_wall_s = Since(window);
  ep.window_cpu_s = ProcessTreeCpu() - cpu_before;
  const double pending_depth =
      static_cast<double>(cluster.runtime().PendingEvents());
  const Snap after = Take(cluster, lazy, loop ? &*loop : nullptr);

  // Quiesce outside the window: ship pending batches, finish in-flight
  // transactions, then read the verdicts and digests.
  if (checker != nullptr) checker->Disarm();
  if (lazy != nullptr) lazy->FlushAllBatches();
  cluster.runtime().Run();
  if (checker != nullptr) {
    checker->CheckFinal();
    ep.invariant_violations = checker->violations_total();
    ep.delusion_slots = checker->delusion_slots();
    for (const fault::Violation& v : checker->TakeViolations()) {
      std::fprintf(stderr, "invariant violation: %s\n", v.ToString().c_str());
    }
  }
  ep.fp = Digests(cluster);
  ep.fp.has_rates = true;
  ep.fp.committed = after.committed - before.committed;
  ep.fp.deadlocks = after.deadlocked - before.deadlocked;
  ep.fp.waits = after.waits - before.waits;
  ep.fp.reconciliations = after.reconciliations - before.reconciliations;
  ep.committed = ep.fp.committed;
  ep.aborted = ep.fp.deadlocks + (after.rejected - before.rejected);

  if (opt.metrics) {
    if (runtime::ThreadRuntime* rt = cluster.thread_runtime()) {
      rt->Shutdown();  // publishes the runtime.* profile metrics
    }
    ep.counts = Counts(before, after, pending_depth);
    ep.counts.submitted = static_cast<double>(
        driver ? out.submitted : after.submitted - before.submitted);
    obs::MetricsRegistry& m = cluster.metrics();
    if (const OnlineStats* st =
            m.GetProfile("runtime.worker_utilization").stats()) {
      ep.counts.worker_utilization = st->mean();
    }
    if (const OnlineStats* st =
            m.GetProfile("runtime.mailbox_max_depth").stats()) {
      ep.counts.mailbox_max_depth = st->count() > 0 ? st->max() : 0;
    }
    if (cluster.wals() != nullptr) {
      // Restart cost: replay every node's finished log.
      wal::WalRecovery recovery(cluster.wals()->backend());
      std::uint64_t records = 0;
      const Clock::time_point t = Clock::now();
      for (NodeId n = 0; n < cluster.size(); ++n) {
        records += recovery.Recover(n, [](const wal::WalRecord&) {})
                       .records_replayed;
      }
      ep.counts.wal_recover_ns = Since(t) * 1e9;
      ep.counts.wal_recovered_records = static_cast<double>(records);
    }
  }
  return ep;
}

/// The bench::SimConfig of a proc episode and of its oracle.
bench::SimConfig ProcConfig(const Workload& w, std::uint64_t seed,
                            bool metrics) {
  bench::SimConfig c;
  c.kind = w.eager_closed ? bench::SchemeKind::kEagerGroup
                          : bench::SchemeKind::kLazyGroup;
  c.nodes = w.nodes;
  c.db_size = w.db_size;
  c.tps = w.tps_per_node;
  c.actions = w.actions;
  c.action_time = w.action_time_s;
  c.sim_seconds = w.window_s;
  c.seed = seed;
  c.batch_flush_window = w.batch_window_s;
  c.enable_metrics = metrics;
  return c;
}

Episode RunProc(const Workload& w, std::uint64_t seed, bool metrics) {
  Episode ep;
  // Set-up on this backend is fork, socket rendezvous, per-child
  // cluster build and teardown: the same run with an empty window.
  bench::SimConfig probe = ProcConfig(w, seed, false);
  probe.sim_seconds = 0;
  const Clock::time_point setup = Clock::now();
  const bench::ProcOutcome empty = bench::RunSchemeMultiProcess(probe);
  ep.setup_s = Since(setup);
  if (!empty.ok) {
    ep.error = "empty-window proc run: " + empty.error;
    return ep;
  }

  const double cpu_before = ProcessTreeCpu();
  const Clock::time_point window = Clock::now();
  const bench::ProcOutcome out =
      bench::RunSchemeMultiProcess(ProcConfig(w, seed, metrics));
  ep.window_wall_s = Since(window);
  ep.window_cpu_s = ProcessTreeCpu() - cpu_before;
  if (!out.ok) {
    ep.error = out.error;
    return ep;
  }
  ep.fp.state_digest = out.state_digest;
  ep.fp.shard_digests = out.shard_digests;
  ep.fp.committed = out.committed;
  ep.fp.metrics_fp = metrics ? out.metrics_fp : 0;
  ep.committed = out.committed;
  ep.invariant_violations = out.invariant_violations;
  ep.counts.committed = static_cast<double>(out.committed);
  ep.counts.proc_frames = static_cast<double>(out.Counter("proc.frames_sent"));
  ep.counts.proc_bytes = static_cast<double>(out.Counter("proc.bytes_sent"));
  ep.counts.proc_syscalls =
      static_cast<double>(out.Counter("proc.writev_calls") +
                          out.Counter("proc.read_calls"));
  ep.counts.proc_eagain_waits =
      static_cast<double>(out.Counter("proc.eagain_waits"));
  return ep;
}

}  // namespace

const std::vector<Workload>& Workloads() {
  // Sizes: 4 x 10,000 objects at 120 txn/s per node with 4 writes and
  // a 5 ms Action_Time is E14's headline traffic; the eager workload
  // packs 32 clients onto 2,048 objects so locks contend.
  static const std::vector<Workload> kAll = {
      {.name = "sim-lazy-open", .backend = Backend::kSim,
       .eager_closed = false, .nodes = 4, .db_size = 10000,
       .tps_per_node = 120, .clients_per_node = 0, .actions = 4,
       .action_time_s = 0.005, .batch_window_s = 0.05, .wal = false,
       .warmup_s = 5, .window_s = 100,
       .companions = {"threads-lazy-open", "proc-lazy-unbatched"}},
      {.name = "threads-lazy-open", .backend = Backend::kThreads,
       .eager_closed = false, .nodes = 3, .db_size = 10000,
       .tps_per_node = 120, .clients_per_node = 0, .actions = 4,
       .action_time_s = 0.005, .batch_window_s = 0.05, .wal = false,
       .warmup_s = 1, .window_s = 5},
      {.name = "sim-eager-closed-wal", .backend = Backend::kSim,
       .eager_closed = true, .nodes = 4, .db_size = 2048,
       .tps_per_node = 0, .clients_per_node = 8, .actions = 4,
       .action_time_s = 0.001, .batch_window_s = 0, .wal = true,
       .warmup_s = 1, .window_s = 15},
      {.name = "proc-lazy-unbatched", .backend = Backend::kProc,
       .eager_closed = false, .nodes = 3, .db_size = 10000,
       .tps_per_node = 120, .clients_per_node = 0, .actions = 4,
       .action_time_s = 0.005, .batch_window_s = 0, .wal = false,
       .warmup_s = 0, .window_s = 10},
  };
  return kAll;
}

const Workload* FindWorkload(std::string_view name) {
  for (const Workload& w : Workloads()) {
    if (name == w.name) return &w;
  }
  return nullptr;
}

std::string Fingerprint::Mismatch(const Fingerprint& o) const {
  auto u = [](std::uint64_t v) { return static_cast<unsigned long long>(v); };
  if (state_digest != o.state_digest) {
    return StrPrintf("state digest %016llx != %016llx", u(state_digest),
                     u(o.state_digest));
  }
  if (shard_digests != o.shard_digests) return "per-shard digests differ";
  if (committed != o.committed) {
    return StrPrintf("committed %llu != %llu", u(committed), u(o.committed));
  }
  if (has_rates && o.has_rates) {
    if (deadlocks != o.deadlocks) {
      return StrPrintf("deadlocks %llu != %llu", u(deadlocks), u(o.deadlocks));
    }
    if (waits != o.waits) {
      return StrPrintf("lock waits %llu != %llu", u(waits), u(o.waits));
    }
    if (reconciliations != o.reconciliations) {
      return StrPrintf("reconciliations %llu != %llu", u(reconciliations),
                       u(o.reconciliations));
    }
  }
  if (metrics_fp != 0 && o.metrics_fp != 0 && metrics_fp != o.metrics_fp) {
    return StrPrintf("metrics fingerprint %016llx != %016llx", u(metrics_fp),
                     u(o.metrics_fp));
  }
  return "";
}

Episode RunEpisode(const Workload& w, std::uint64_t seed,
                   const EpisodeOptions& options) {
  if (options.backend == Backend::kProc) {
    return RunProc(w, seed, options.metrics);
  }
  return RunInProcess(w, seed, options);
}

Episode RunOracle(const Workload& w, std::uint64_t seed) {
  if (w.backend != Backend::kProc) {
    return RunInProcess(w, seed,
                        EpisodeOptions{.backend = Backend::kSim,
                                       .metrics = true,
                                       .checker = true});
  }
  // The proc children run bench::RunScheme on this config; so does the
  // oracle, once traced (its metrics fingerprint must equal a traced
  // proc run's, and its counts are each child's in-process layer work)
  // and once with the invariant checker armed.
  bench::SimConfig config = ProcConfig(w, seed, true);
  Episode ep;
  bench::RunHooks hooks;
  hooks.before_digest = [&ep](Cluster& cluster) {
    ep.counts = Counts(Snap{}, Take(cluster, nullptr, nullptr),
                       static_cast<double>(cluster.runtime().PendingEvents()));
  };
  const bench::SimOutcome o = bench::RunScheme(config, hooks);
  ep.fp.state_digest = o.state_digest;
  ep.fp.shard_digests = o.shard_digests;
  ep.fp.committed = o.committed;
  ep.fp.metrics_fp = bench::MetricsFingerprint(o.metrics);
  ep.committed = o.committed;
  ep.aborted = o.deadlocks + o.unavailable;
  ep.counts.submitted = static_cast<double>(o.submitted);

  config.run_invariant_checker = true;
  const bench::SimOutcome checked = bench::RunScheme(config);
  ep.invariant_violations = checked.invariant_violations;
  ep.delusion_slots = checked.delusion_slots;
  if (checked.state_digest != o.state_digest) {
    ep.error = "oracle digest changed with the invariant checker armed";
  }
  return ep;
}

}  // namespace tdr::perfledger

// The repository's performance ledger: one workload per invocation,
// end-to-end metrics untraced (--trace 0) or the per-layer ledger from
// a traced run (--trace 1), with the output checked against the sim
// oracle either way. perfledger/run.py builds this binary and forwards
// its arguments; NOTES.md describes the workloads and metrics.
//
//   perfledger --workload sim-lazy-open --seed 7 --seconds 10 --trace 0
//
// The last line of stdout is one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// A failed output check prints correct=false and exits 1.

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "perfledger/layers.h"
#include "perfledger/workloads.h"

namespace tdr::perfledger {
namespace {

using Clock = std::chrono::steady_clock;

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0;
  int trace = -1;
};

int Usage(const char* why) {
  std::fprintf(stderr,
               "perfledger: %s\nusage: perfledger --workload NAME --seed N "
               "--seconds S --trace 0|1\nworkloads:",
               why);
  for (const Workload& w : Workloads()) std::fprintf(stderr, " %s", w.name);
  std::fprintf(stderr, "\n");
  return 2;
}

bool ParseArgs(int argc, char** argv, Args* args) {
  bool seen[4] = {false, false, false, false};
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* value = argv[i + 1];
    char* end = nullptr;
    if (flag == "--workload") {
      args->workload = value;
      seen[0] = true;
    } else if (flag == "--seed") {
      args->seed = std::strtoull(value, &end, 10);
      if (*value == '-' || end == value || *end != '\0') return false;
      seen[1] = true;
    } else if (flag == "--seconds") {
      args->seconds = std::strtod(value, &end);
      if (end == value || *end != '\0' || !(args->seconds > 0) ||
          args->seconds > 120) {
        return false;
      }
      seen[2] = true;
    } else if (flag == "--trace") {
      if (std::strcmp(value, "0") != 0 && std::strcmp(value, "1") != 0) {
        return false;
      }
      args->trace = value[0] - '0';
      seen[3] = true;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && seen[0] && seen[1] && seen[2] && seen[3];
}

double Median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

/// The q-quantile of `v` (0 <= q <= 1), interpolating between ranks.
double Quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double rank = q * static_cast<double>(v.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(rank);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (rank - static_cast<double>(lo));
}

/// The end-to-end timings are each episode's figure at the slow tenth
/// of the run: the 10th percentile of throughput and the 90th of CPU
/// and set-up time. See NOTES.md ("Spread of the end-to-end metrics").
constexpr double kSlowTail = 0.9;

double Ratio(double num, double den) { return den > 0 ? num / den : 0; }

/// Peak resident set of this process image in KiB. getrusage's
/// RUSAGE_SELF figure would do, except that Linux carries the peak of
/// the image this one was exec'd from (the python wrapper) into it.
long SelfPeakKib() {
  if (std::FILE* f = std::fopen("/proc/self/status", "r")) {
    char line[256];
    long kib = -1;
    while (std::fgets(line, sizeof(line), f) != nullptr) {
      if (std::sscanf(line, "VmHWM: %ld kB", &kib) == 1) break;
    }
    std::fclose(f);
    if (kib >= 0) return kib;
  }
  rusage self{};
  getrusage(RUSAGE_SELF, &self);
  return self.ru_maxrss;
}

/// The larger of this process's peak and its largest reaped child's.
double PeakRssMib() {
  rusage children{};
  getrusage(RUSAGE_CHILDREN, &children);
  return static_cast<double>(std::max(SelfPeakKib(), children.ru_maxrss)) /
         1024.0;
}

/// Metrics in the order they were added, printed as the result object.
class Result {
 public:
  void Add(const char* name, double value, const char* unit) {
    metrics_.push_back({name, std::isfinite(value) ? value : 0.0, unit});
  }
  void Print(bool correct, std::uint64_t attempted,
             std::uint64_t failed) const {
    std::string out = "{\"correct\": ";
    out += correct ? "true" : "false";
    out += ", \"attempted\": " + std::to_string(attempted);
    out += ", \"failed\": " + std::to_string(failed);
    out += ", \"metrics\": {";
    char buf[64];
    for (std::size_t i = 0; i < metrics_.size(); ++i) {
      std::snprintf(buf, sizeof(buf), "%.17g", metrics_[i].value);
      if (i > 0) out += ", ";
      out += "\"" + metrics_[i].name + "\": {\"value\": " + buf +
             ", \"unit\": \"" + metrics_[i].unit + "\"}";
    }
    out += "}}";
    std::fflush(stderr);
    std::printf("%s\n", out.c_str());
    std::fflush(stdout);
  }

 private:
  struct Metric {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<Metric> metrics_;
};

/// Collects output-check failures: each is printed, and any one fails
/// the run.
class Check {
 public:
  void Expect(bool ok, const std::string& what) {
    if (ok) return;
    ok_ = false;
    std::fprintf(stderr, "CHECK FAILED: %s\n", what.c_str());
  }
  void Same(const Fingerprint& ref, const Fingerprint& got,
            const std::string& what) {
    const std::string why = ref.Mismatch(got);
    Expect(why.empty(), what + ": " + why);
  }
  bool ok() const { return ok_; }

 private:
  bool ok_ = true;
};

void CheckEpisode(const Episode& ep, Check* check) {
  check->Expect(ep.error.empty(), "backend failure: " + ep.error);
  check->Expect(ep.committed > 0, "episode committed nothing");
}

/// The oracle's own verdicts: no invariant violation (lazy-group
/// delusion is counted, not asserted).
void CheckOracle(const Episode& oracle, Check* check) {
  check->Expect(oracle.error.empty(), "oracle: " + oracle.error);
  check->Expect(oracle.invariant_violations == 0,
                "invariant checker reported " +
                    std::to_string(oracle.invariant_violations) +
                    " violations");
  if (oracle.delusion_slots > 0) {
    std::fprintf(stderr, "lazy-group delusion: %llu divergent slots\n",
                 static_cast<unsigned long long>(oracle.delusion_slots));
  }
}

/// Transactions an episode finished in its window, committed or
/// aborted: the operations its output check vouches for. A run whose
/// check fails counts all of them failed. Aborts (deadlock victims)
/// are outcomes the oracle reproduces, not failures; they show in
/// txn_committed_frac. The proc backend reports commits only; its
/// aborts are the oracle's, whose schedule it was checked against.
std::uint64_t Finished(const Episode& ep, const Episode& oracle,
                       const Workload& w) {
  return w.backend == Backend::kProc ? oracle.committed + oracle.aborted
                                     : ep.committed + ep.aborted;
}

double NsPerTxn(const Episode& ep) {
  return Ratio(ep.window_wall_s * 1e9, static_cast<double>(ep.committed));
}

/// Layer counts of a traced episode. Each proc child runs the whole
/// cluster, so a proc run's in-process layers are the oracle's counts
/// (same config, same schedule, checked) and its transport its own.
LayerCounts TracedCounts(const Workload& w, const Episode& traced,
                         const Episode& oracle) {
  if (w.backend != Backend::kProc) return traced.counts;
  LayerCounts c = oracle.counts;
  c.proc_frames = traced.counts.proc_frames;
  c.proc_bytes = traced.counts.proc_bytes;
  c.proc_syscalls = traced.counts.proc_syscalls;
  c.proc_eagain_waits = traced.counts.proc_eagain_waits;
  return c;
}

/// The call mix the isolated layer calls are driven with.
LayerShape ShapeOf(const Workload& w, const LayerCounts& c) {
  LayerShape shape;
  shape.nodes = w.nodes;
  shape.db_size = w.db_size;
  shape.actions = w.actions;
  shape.pending_depth =
      static_cast<std::size_t>(std::max(1.0, std::round(c.pending_depth)));
  shape.updates_per_batch = static_cast<std::size_t>(
      std::max(1.0, std::round(Ratio(c.batch_updates, c.batches))));
  shape.records_per_flush = static_cast<std::size_t>(
      std::max(1.0, std::round(Ratio(c.wal_records, c.wal_flushes))));
  return shape;
}

/// Layer counts of one traced episode of `w`, checked against its own
/// sim oracle.
LayerCounts RunCompanion(const Workload& w, std::uint64_t seed,
                         Check* check) {
  const Episode ep =
      RunEpisode(w, seed, {.backend = w.backend, .metrics = true});
  CheckEpisode(ep, check);
  const Episode oracle = RunOracle(w, seed);
  CheckOracle(oracle, check);
  check->Same(oracle.fp, ep.fp,
              std::string(w.name) + " companion run vs sim oracle");
  return TracedCounts(w, ep, oracle);
}

/// Untraced timed episodes: the end-to-end metrics.
int RunEndToEnd(const Workload& w, const Args& args) {
  const Clock::time_point start = Clock::now();
  const EpisodeOptions timed{.backend = w.backend};
  Check check;
  // One untimed warm-up episode first: it grows the heap and warms the
  // caches, and its digests are the reference for the timed ones.
  const Episode warm = RunEpisode(w, args.seed, timed);
  CheckEpisode(warm, &check);
  std::vector<Episode> eps;
  double measured = 0;
  // At least five timed episodes; stop adding once --seconds of window
  // time is measured (or far past it).
  while (check.ok() && (eps.size() < 5 || measured < args.seconds)) {
    eps.push_back(RunEpisode(w, args.seed, timed));
    CheckEpisode(eps.back(), &check);
    measured += eps.back().window_wall_s;
    check.Same(warm.fp, eps.back().fp, "timed episode vs warm-up episode");
    if (std::chrono::duration<double>(Clock::now() - start).count() >
        3 * args.seconds) {
      break;
    }
  }
  const Episode oracle = RunOracle(w, args.seed);
  CheckOracle(oracle, &check);
  check.Same(oracle.fp, warm.fp, "timed run vs sim oracle");

  std::vector<double> rate, cpu, setup;
  std::uint64_t attempted = Finished(warm, oracle, w);
  for (const Episode& ep : eps) {
    const double committed = static_cast<double>(ep.committed);
    rate.push_back(Ratio(committed, ep.window_wall_s));
    cpu.push_back(Ratio(ep.window_cpu_s * 1e6, committed));
    setup.push_back(ep.setup_s);
    attempted += Finished(ep, oracle, w);
  }
  const double committed_frac =
      Ratio(static_cast<double>(oracle.committed),
            static_cast<double>(oracle.committed + oracle.aborted));
  const double slow_rate = Quantile(rate, 1 - kSlowTail);
  std::sort(rate.begin(), rate.end());
  std::fprintf(stderr,
               "%s seed=%llu episodes=%zu window=%.4gs committed/episode=%llu "
               "aborted/episode=%llu txn/s min %.0f p10 %.0f median %.0f "
               "max %.0f\n",
               w.name, static_cast<unsigned long long>(args.seed), eps.size(),
               measured / static_cast<double>(eps.size()),
               static_cast<unsigned long long>(oracle.committed),
               static_cast<unsigned long long>(oracle.aborted), rate.front(),
               slow_rate, Median(rate), rate.back());

  Result r;
  r.Add("txn_per_s", slow_rate, "1/s");
  r.Add("cpu_us_per_txn", Quantile(cpu, kSlowTail), "us");
  r.Add("setup_s", Quantile(setup, kSlowTail), "s");
  r.Add("peak_rss_mib", PeakRssMib(), "MiB");
  r.Add("txn_committed_frac", committed_frac, "ratio");
  r.Print(check.ok(), attempted, check.ok() ? 0 : attempted);
  return check.ok() ? 0 : 1;
}

/// Traced run: untraced and traced episodes alternate on one seed
/// (their ratio is the tracing overhead), the traced counts give each
/// layer's calls per txn, and timed calls into each layer give its ns
/// per call. The ledger is their product.
int RunLedger(const Workload& w, const Args& args) {
  const Clock::time_point start = Clock::now();
  Check check;
  const Episode oracle = RunOracle(w, args.seed);
  CheckOracle(oracle, &check);
  std::vector<Episode> plain, traced;
  LayerCosts cost;
  double measured = 0;
  while (plain.size() < 3 || measured < 0.6 * args.seconds) {
    plain.push_back(RunEpisode(w, args.seed, {.backend = w.backend}));
    traced.push_back(
        RunEpisode(w, args.seed, {.backend = w.backend, .metrics = true}));
    for (const Episode* ep : {&plain.back(), &traced.back()}) {
      CheckEpisode(*ep, &check);
      measured += ep->window_wall_s;
      check.Same(oracle.fp, ep->fp, "traced/untraced episode vs sim oracle");
    }
    if (!check.ok()) break;
    if (plain.size() == 1) {
      // Time the layer calls between episodes, so that both sample the
      // host over the same stretch of time.
      cost = MeasureLayers(
          ShapeOf(w, TracedCounts(w, traced.front(), oracle)), args.seed);
    }
    if (std::chrono::duration<double>(Clock::now() - start).count() >
        2 * args.seconds) {
      break;
    }
  }

  std::vector<double> plain_ns, traced_ns_all, acquire_us;
  for (const Episode& ep : plain) plain_ns.push_back(NsPerTxn(ep));
  for (const Episode& ep : traced) {
    traced_ns_all.push_back(NsPerTxn(ep));
    acquire_us.push_back(
        Ratio(ep.counts.executor_step_us, ep.counts.executor_steps));
  }
  const double untraced_ns = Median(plain_ns);
  const double traced_ns = Median(traced_ns_all);

  // Layer counts are a function of the seed; take the first traced
  // episode's.
  const LayerCounts c = TracedCounts(w, traced.front(), oracle);
  // The dispatch and transport layers run only on the threads and proc
  // backends; a workload's companions carry its traffic there.
  // All zero when neither the workload nor a companion ran there.
  LayerCounts dispatch;
  LayerCounts transport;
  if (w.backend == Backend::kThreads) dispatch = c;
  if (w.backend == Backend::kProc) transport = c;
  for (const char* name : w.companions) {
    const Workload* cw = FindWorkload(name);
    (cw->backend == Backend::kThreads ? dispatch : transport) =
        RunCompanion(*cw, args.seed, &check);
  }
  auto per = [](double count, const LayerCounts& on) {
    return Ratio(count, on.committed);
  };
  const double txns = c.committed;
  auto per_txn = [txns](double count) { return Ratio(count, txns); };

  // Ledger: calls per txn x ns per call, by layer. Isolated calls
  // miss what the executor and applier do around them (bookkeeping,
  // scheme callbacks, cache misses on the live stores); their in-situ
  // profile scopes measure that, so the executor line is the scopes'
  // time beyond the isolated lock, store, log and batch calls they may
  // contain (the commit step appends to the log and enqueues the
  // batch). The ledger is compared with the traced run, where the
  // scopes ran.
  const double events = per_txn(c.events);
  // An executor step locks and writes one object, except the last one
  // of each transaction, which commits; a replica apply locks one
  // object and writes it unless it conflicts.
  const double executor_writes = per_txn(c.executor_steps - c.committed);
  const double acquires =
      executor_writes + per_txn(c.replica_apply_calls);
  const double writes = executor_writes + per_txn(c.replica_applies);
  const bool threads = w.backend == Backend::kThreads;
  const double l_sim = threads ? 0 : events * cost.sim_ns_per_event;
  const double l_runtime =
      threads ? events * cost.runtime_ns_per_dispatch : 0;
  const double l_txn =
      acquires * cost.txn_ns_per_lock_txn / w.actions +
      per_txn(c.lock_waits + c.replica_waits) * cost.txn_ns_per_cycle_check;
  const double l_storage = writes * cost.storage_ns_per_write;
  const double l_wal = per_txn(c.wal_records) * cost.wal_ns_per_append;
  const double l_net = per_txn(c.net_msgs - c.batches) * cost.net_ns_per_msg;
  const double l_replication = per_txn(c.batches) *
                               cost.replication_ns_per_batch;
  const double in_situ =
      per_txn(c.executor_step_us + c.replica_apply_us) * 1e3;
  const double l_executor = std::max(
      0.0, in_situ - (l_txn + l_storage + l_wal + l_replication));
  // Transport counts are summed over the node processes, which run in
  // parallel: one process's share is on the critical path. A reader
  // that finds no frame blocks until its peer's write wakes it.
  const double l_proc =
      (per_txn(c.proc_frames) * cost.proc_ns_per_frame +
       per_txn(c.proc_eagain_waits) * cost.proc_ns_per_wakeup) /
      w.nodes;
  const double l_workload =
      per_txn(c.submitted) * cost.workload_ns_per_program;
  const double attributed = l_sim + l_runtime + l_txn + l_storage + l_wal +
                            l_executor + l_net + l_replication + l_proc +
                            l_workload;
  // Each layer's line as a share of the traced ns per txn.
  auto share = [traced_ns](double ns) { return Ratio(ns, traced_ns); };
  const double recover_ns =
      c.wal_recovered_records > 0
          ? Ratio(c.wal_recover_ns, c.wal_recovered_records)
          : cost.wal_recover_ns_per_record;

  std::fprintf(stderr,
               "%s seed=%llu ledger over %.0f txns: traced %.0f ns/txn, "
               "attributed %.0f (sim %.0f, runtime %.0f, txn %.0f, storage "
               "%.0f, wal %.0f, executor %.0f, net %.0f, replication %.0f, "
               "proc %.0f, workload %.0f)\n",
               w.name, static_cast<unsigned long long>(args.seed), txns,
               traced_ns, attributed, l_sim, l_runtime, l_txn, l_storage,
               l_wal, l_executor, l_net, l_replication, l_proc, l_workload);

  Result r;
  r.Add("sim.events_per_txn", events, "1/txn");
  r.Add("sim.pending_depth", c.pending_depth, "count");
  r.Add("sim.ns_per_event", cost.sim_ns_per_event, "ns");
  const LayerCounts& d = dispatch;
  r.Add("runtime.waves_per_txn", per(d.runtime_waves, dispatch), "1/txn");
  r.Add("runtime.wave_width_mean", Ratio(d.runtime_events, d.runtime_waves),
        "1/wave");
  r.Add("runtime.ns_per_dispatch", cost.runtime_ns_per_dispatch, "ns");
  r.Add("runtime.worker_utilization", d.worker_utilization, "ratio");
  r.Add("runtime.mailbox_max_depth", d.mailbox_max_depth, "count");
  r.Add("txn.lock_acquires_per_txn", acquires, "1/txn");
  r.Add("txn.lock_waits_per_txn", per_txn(c.lock_waits + c.replica_waits),
        "1/txn");
  r.Add("txn.deadlocks_per_txn", per_txn(c.deadlocks), "1/txn");
  r.Add("txn.lock_acquire_us", Median(acquire_us), "us");
  r.Add("txn.ns_per_lock_txn", cost.txn_ns_per_lock_txn, "ns");
  r.Add("txn.ns_per_cycle_check", cost.txn_ns_per_cycle_check, "ns");
  r.Add("storage.writes_per_txn", writes, "1/txn");
  r.Add("storage.ns_per_write", cost.storage_ns_per_write, "ns");
  r.Add("net.msgs_per_txn", per_txn(c.net_msgs), "1/txn");
  r.Add("net.ns_per_msg", cost.net_ns_per_msg, "ns");
  r.Add("replication.batches_per_txn", per_txn(c.batches), "1/txn");
  r.Add("replication.updates_per_batch", Ratio(c.batch_updates, c.batches),
        "1/batch");
  r.Add("replication.applies_per_txn", per_txn(c.replica_applies), "1/txn");
  r.Add("replication.conflicts_per_txn", per_txn(c.conflicts), "1/txn");
  r.Add("replication.apply_frac", share(per_txn(c.replica_apply_us) * 1e3),
        "ratio");
  r.Add("replication.ns_per_batch", cost.replication_ns_per_batch, "ns");
  r.Add("wal.records_per_txn", per_txn(c.wal_records), "1/txn");
  r.Add("wal.flushes_per_txn", per_txn(c.wal_flushes), "1/txn");
  r.Add("wal.records_per_flush", Ratio(c.wal_records, c.wal_flushes),
        "1/flush");
  r.Add("wal.bytes_per_txn", per_txn(c.wal_bytes), "B/txn");
  r.Add("wal.ns_per_append", cost.wal_ns_per_append, "ns");
  r.Add("wal.recover_ns_per_record", recover_ns, "ns");
  const LayerCounts& t = transport;
  r.Add("proc.frames_per_txn", per(t.proc_frames, transport), "1/txn");
  r.Add("proc.bytes_per_txn", per(t.proc_bytes, transport), "B/txn");
  r.Add("proc.syscalls_per_txn", per(t.proc_syscalls, transport), "1/txn");
  r.Add("proc.eagain_waits_per_txn", per(t.proc_eagain_waits, transport),
        "1/txn");
  r.Add("proc.ns_per_frame", cost.proc_ns_per_frame, "ns");
  r.Add("proc.ns_per_wakeup", cost.proc_ns_per_wakeup, "ns");
  r.Add("workload.ns_per_program", cost.workload_ns_per_program, "ns");
  r.Add("ledger.sim_frac", share(l_sim), "ratio");
  r.Add("ledger.runtime_frac", share(l_runtime), "ratio");
  r.Add("ledger.txn_frac", share(l_txn), "ratio");
  r.Add("ledger.storage_frac", share(l_storage), "ratio");
  r.Add("ledger.net_frac", share(l_net), "ratio");
  r.Add("ledger.replication_frac", share(l_replication), "ratio");
  r.Add("ledger.wal_frac", share(l_wal), "ratio");
  r.Add("ledger.executor_frac", share(l_executor), "ratio");
  r.Add("ledger.proc_frac", share(l_proc), "ratio");
  r.Add("ledger.workload_frac", share(l_workload), "ratio");
  r.Add("layers.untraced_ns_per_txn", untraced_ns, "ns");
  r.Add("layers.traced_ns_per_txn", traced_ns, "ns");
  r.Add("layers.attributed_ns_per_txn", attributed, "ns");
  r.Add("layers.unattributed_frac", Ratio(traced_ns - attributed, traced_ns),
        "ratio");
  r.Add("obs.trace_overhead_frac", Ratio(traced_ns, untraced_ns) - 1,
        "ratio");

  std::uint64_t attempted = 0;
  for (const Episode& ep : traced) attempted += Finished(ep, oracle, w);
  r.Print(check.ok(), attempted, check.ok() ? 0 : attempted);
  return check.ok() ? 0 : 1;
}

}  // namespace
}  // namespace tdr::perfledger

int main(int argc, char** argv) {
  using namespace tdr::perfledger;
  Args args;
  if (!ParseArgs(argc, argv, &args)) return Usage("bad arguments");
  const Workload* w = FindWorkload(args.workload);
  if (w == nullptr) return Usage("unknown workload");
  return args.trace == 1 ? RunLedger(*w, args) : RunEndToEnd(*w, args);
}

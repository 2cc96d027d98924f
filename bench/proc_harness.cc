#include "bench/proc_harness.h"

#include <cstdlib>
#include <optional>
#include <sstream>

#include "proc/frame.h"
#include "proc/net_bridge.h"
#include "proc/process_coordinator.h"
#include "util/logging.h"

namespace tdr::bench {

namespace {

constexpr int kConfigVersion = 2;

void PutU64(std::string* out, const char* key, std::uint64_t v) {
  out->append(
      StrPrintf("%s=%llu\n", key, static_cast<unsigned long long>(v)));
}

void PutF64(std::string* out, const char* key, double v) {
  out->append(StrPrintf("%s=%.17g\n", key, v));
}

}  // namespace

std::string SerializeSimConfig(const SimConfig& c) {
  std::string out;
  PutU64(&out, "version", kConfigVersion);
  PutU64(&out, "kind", static_cast<std::uint64_t>(c.kind));
  PutU64(&out, "nodes", c.nodes);
  PutU64(&out, "db_size", c.db_size);
  PutF64(&out, "tps", c.tps);
  PutU64(&out, "actions", c.actions);
  PutF64(&out, "action_time", c.action_time);
  PutF64(&out, "sim_seconds", c.sim_seconds);
  PutU64(&out, "seed", c.seed);
  PutF64(&out, "mix_write", c.mix.write);
  PutF64(&out, "mix_add", c.mix.add);
  PutF64(&out, "mix_subtract", c.mix.subtract);
  PutF64(&out, "mix_append", c.mix.append);
  PutF64(&out, "mix_read", c.mix.read);
  PutU64(&out, "num_shards", c.num_shards);
  PutF64(&out, "batch_flush_window", c.batch_flush_window);
  PutU64(&out, "batch_max_updates", c.batch_max_updates);
  PutF64(&out, "hot_fraction", c.hot_fraction);
  PutU64(&out, "hot_shards", c.hot_shards);
  PutU64(&out, "skew_shards", c.skew_shards);
  PutF64(&out, "fault_drop_probability", c.fault_drop_probability);
  PutU64(&out, "fault_partition_cycle", c.fault_partition_cycle ? 1 : 0);
  PutU64(&out, "fault_crash_cycle", c.fault_crash_cycle ? 1 : 0);
  PutU64(&out, "durability", static_cast<std::uint64_t>(c.durability));
  PutF64(&out, "wal_flush_latency", c.wal_flush_latency);
  PutF64(&out, "wal_group_window", c.wal_group_window);
  PutU64(&out, "wal_group_max_records", c.wal_group_max_records);
  PutU64(&out, "wal_segment_bytes", c.wal_segment_bytes);
  out.append(StrPrintf("wal_dir=%s\n", c.wal_dir.c_str()));
  PutU64(&out, "enable_metrics", c.enable_metrics ? 1 : 0);
  PutU64(&out, "record_series", c.record_series ? 1 : 0);
  PutF64(&out, "series_interval_seconds", c.series_interval_seconds);
  PutU64(&out, "backend", static_cast<std::uint64_t>(c.backend));
  PutU64(&out, "drain", c.drain ? 1 : 0);
  PutU64(&out, "run_invariant_checker", c.run_invariant_checker ? 1 : 0);
  return out;
}

bool ParseSimConfig(const std::string& text, SimConfig* out,
                    std::string* error) {
  *out = SimConfig();
  bool saw_version = false;
  std::istringstream in(text);
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    const std::size_t eq = line.find('=');
    if (eq == std::string::npos) {
      *error = StrPrintf("config line without '=': %s", line.c_str());
      return false;
    }
    const std::string key = line.substr(0, eq);
    const std::string val = line.substr(eq + 1);
    if (key == "wal_dir") {
      out->wal_dir = val;
      continue;
    }
    char* end = nullptr;
    const double f = std::strtod(val.c_str(), &end);
    if (end == val.c_str() || *end != '\0') {
      *error = StrPrintf("non-numeric config value in: %s", line.c_str());
      return false;
    }
    const std::uint64_t u =
        std::strtoull(val.c_str(), &end, 10);
    if (key == "version") {
      if (u != kConfigVersion) {
        *error = StrPrintf("config version %llu, expected %d",
                           static_cast<unsigned long long>(u),
                           kConfigVersion);
        return false;
      }
      saw_version = true;
    } else if (key == "kind") {
      out->kind = static_cast<SchemeKind>(u);
    } else if (key == "nodes") {
      out->nodes = static_cast<std::uint32_t>(u);
    } else if (key == "db_size") {
      out->db_size = u;
    } else if (key == "tps") {
      out->tps = f;
    } else if (key == "actions") {
      out->actions = static_cast<std::uint32_t>(u);
    } else if (key == "action_time") {
      out->action_time = f;
    } else if (key == "sim_seconds") {
      out->sim_seconds = f;
    } else if (key == "seed") {
      out->seed = u;
    } else if (key == "mix_write") {
      out->mix.write = f;
    } else if (key == "mix_add") {
      out->mix.add = f;
    } else if (key == "mix_subtract") {
      out->mix.subtract = f;
    } else if (key == "mix_append") {
      out->mix.append = f;
    } else if (key == "mix_read") {
      out->mix.read = f;
    } else if (key == "num_shards") {
      out->num_shards = static_cast<std::uint32_t>(u);
    } else if (key == "batch_flush_window") {
      out->batch_flush_window = f;
    } else if (key == "batch_max_updates") {
      out->batch_max_updates = u;
    } else if (key == "hot_fraction") {
      out->hot_fraction = f;
    } else if (key == "hot_shards") {
      out->hot_shards = static_cast<std::uint32_t>(u);
    } else if (key == "skew_shards") {
      out->skew_shards = static_cast<std::uint32_t>(u);
    } else if (key == "fault_drop_probability") {
      out->fault_drop_probability = f;
    } else if (key == "fault_partition_cycle") {
      out->fault_partition_cycle = u != 0;
    } else if (key == "fault_crash_cycle") {
      out->fault_crash_cycle = u != 0;
    } else if (key == "durability") {
      out->durability = static_cast<DurabilityMode>(u);
    } else if (key == "wal_flush_latency") {
      out->wal_flush_latency = f;
    } else if (key == "wal_group_window") {
      out->wal_group_window = f;
    } else if (key == "wal_group_max_records") {
      out->wal_group_max_records = u;
    } else if (key == "wal_segment_bytes") {
      out->wal_segment_bytes = u;
    } else if (key == "enable_metrics") {
      out->enable_metrics = u != 0;
    } else if (key == "record_series") {
      out->record_series = u != 0;
    } else if (key == "series_interval_seconds") {
      out->series_interval_seconds = f;
    } else if (key == "backend") {
      out->backend = static_cast<RuntimeBackend>(u);
    } else if (key == "drain") {
      out->drain = u != 0;
    } else if (key == "run_invariant_checker") {
      out->run_invariant_checker = u != 0;
    } else {
      *error = StrPrintf("unknown config key: %s", key.c_str());
      return false;
    }
  }
  if (!saw_version) {
    *error = "config payload carries no version";
    return false;
  }
  return true;
}

std::uint64_t MetricsFingerprint(const obs::MetricsSnapshot& snapshot) {
  const std::string text = snapshot.ToString();
  return proc::HashBytes(text.data(), text.size());
}

std::uint64_t ProcOutcome::Counter(const std::string& name) const {
  for (const auto& [n, v] : counters) {
    if (n == name) return v;
  }
  return 0;
}

namespace {

/// The forked node process's whole life: rebuild the cluster from the
/// shipped config, run it with the NetBridge attached (every owned
/// delivery rendezvouses over the sockets), drain-barrier, digest.
proc::NodeReport ProcChildBody(proc::ProcessCoordinator::NodeContext& ctx) {
  SimConfig config;
  std::string parse_error;
  if (!ParseSimConfig(ctx.config(), &config, &parse_error)) {
    ctx.Fail(StrPrintf("config parse: %s", parse_error.c_str()));
  }
  if (config.nodes != ctx.num_nodes()) {
    ctx.Fail(StrPrintf("config says %u nodes, coordinator forked %u",
                       config.nodes, ctx.num_nodes()));
  }
  if (!config.wal_dir.empty()) {
    // Every process re-runs the whole cluster's WAL traffic; give each
    // its own directory or they would clobber one another's segments.
    config.wal_dir += StrPrintf("/p%u", ctx.node());
  }

  std::optional<proc::NetBridge> bridge;
  RunHooks hooks;
  hooks.on_built = [&](Cluster& cluster) {
    bridge.emplace(
        ctx.node(), ctx.num_nodes(), ctx.data(), &cluster.runtime(),
        &cluster.sim(), proc::NetBridge::Options{},
        [&ctx](const std::string& why) { ctx.Fail(why); });
    cluster.net().set_delivery_hook(&*bridge);
  };
  hooks.before_digest = [&](Cluster& cluster) {
    (void)cluster;
    if (!ctx.data()->FlushAll(30000)) {
      ctx.Fail(StrPrintf("final flush: %s", ctx.data()->error().c_str()));
    }
    std::string barrier_error;
    if (!ctx.Barrier(&barrier_error)) {
      ctx.Fail(barrier_error);
    }
    // Every process has now drained AND flushed: anything still queued,
    // buffered, or half-reassembled is a schedule disagreement.
    std::string why;
    if (!ctx.data()->Idle(&why)) {
      ctx.Fail(StrPrintf("transport not idle after drain barrier: %s",
                         why.c_str()));
    }
  };

  const SimOutcome out = RunScheme(config, hooks);

  proc::NodeReport report;
  report.node = ctx.node();
  report.state_digest = out.state_digest;
  report.matrix_fp = proc::HashBytes(
      out.shard_digests.data(),
      out.shard_digests.size() * sizeof(std::uint64_t));
  report.metrics_fp = MetricsFingerprint(out.metrics);
  report.plan_fp = BuildFaultPlan(config).Fingerprint();
  report.committed = out.committed;
  report.invariant_violations = out.invariant_violations;
  const std::size_t shards = config.nodes > 0
                                 ? out.shard_digests.size() / config.nodes
                                 : 0;
  report.owned_shard_digests.reserve(shards);
  for (std::size_t s = 0; s < shards; ++s) {
    report.owned_shard_digests.push_back(
        out.shard_digests[s * config.nodes + ctx.node()]);
  }
  const proc::SocketTransport::Stats& st = ctx.data()->stats();
  report.counters = {
      {"proc.bytes_received", st.bytes_received},
      {"proc.bytes_sent", st.bytes_sent},
      {"proc.deliveries_observed_remote", bridge->observed_remote()},
      {"proc.deliveries_shipped", bridge->shipped()},
      {"proc.deliveries_verified", bridge->verified()},
      {"proc.eagain_waits", st.eagain_waits},
      {"proc.frames_received", st.frames_received},
      {"proc.frames_sent", st.frames_sent},
      {"proc.partial_frames", st.partial_frames},
      {"proc.partial_writes", st.partial_writes},
      {"proc.read_calls", st.read_calls},
      {"proc.writev_calls", st.writev_calls},
  };
  return report;
}

}  // namespace

ProcOutcome RunSchemeMultiProcess(const SimConfig& config) {
  ProcOutcome result;
  proc::ProcessCoordinator::Options opts;
  opts.num_nodes = config.nodes;
  opts.config = SerializeSimConfig(config);
  proc::ProcessCoordinator::Result run =
      proc::ProcessCoordinator::Run(opts, ProcChildBody);
  if (!run.ok) {
    result.error = run.error;
    return result;
  }
  std::string validate_error;
  if (!proc::ProcessCoordinator::ValidateReports(run.reports,
                                                 &validate_error)) {
    result.error = validate_error;
    return result;
  }
  const proc::NodeReport& first = run.reports.front();
  result.committed = first.committed;
  // Every process runs the full cluster, so each reports the same
  // checker verdict; take the worst rather than summing n copies.
  for (const proc::NodeReport& r : run.reports) {
    if (r.invariant_violations > result.invariant_violations) {
      result.invariant_violations = r.invariant_violations;
    }
  }
  result.state_digest = first.state_digest;
  result.metrics_fp = first.metrics_fp;
  result.plan_fp = first.plan_fp;
  for (const auto& row :
       proc::ProcessCoordinator::AssembleShardMatrix(run.reports)) {
    result.shard_digests.insert(result.shard_digests.end(), row.begin(),
                                row.end());
  }
  // The assembled matrix splices one authoritative column out of each
  // OS process; hashing it must reproduce the full-matrix fingerprint
  // every child computed locally, or some process's replica state
  // disagrees with its owner's.
  const std::uint64_t assembled_fp = proc::HashBytes(
      result.shard_digests.data(),
      result.shard_digests.size() * sizeof(std::uint64_t));
  if (assembled_fp != first.matrix_fp) {
    result.error = StrPrintf(
        "assembled owner-column matrix fp %016llx != per-child matrix fp "
        "%016llx",
        static_cast<unsigned long long>(assembled_fp),
        static_cast<unsigned long long>(first.matrix_fp));
    return result;
  }
  result.counters = proc::ProcessCoordinator::MergeCounters(run.reports);
  result.ok = true;
  return result;
}

}  // namespace tdr::bench

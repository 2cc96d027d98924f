#include "bench/proc_harness.h"

#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <optional>
#include <sstream>
#include <type_traits>

#include "proc/frame.h"
#include "proc/net_bridge.h"
#include "proc/process_coordinator.h"
#include "util/decimal.h"
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
  PutU64(&out, "poisson_arrivals", c.poisson_arrivals ? 1 : 0);
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
  PutU64(&out, "wal_fsync", c.wal_fsync ? 1 : 0);
  // Byte for byte: a %s would stop at a NUL.
  out.append("wal_dir=").append(c.wal_dir).append("\n");
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
    // Integer fields take plain decimal digits that fit the field
    // (enums: a declared value; flags: 0 or 1); real fields take any
    // finite number strtod reads whole.
    std::uint64_t u = 0;
    const bool is_uint = ParseDecimalU64(val, &u);
    char* end = nullptr;
    const double f = std::strtod(val.c_str(), &end);
    const bool is_real =
        end != val.c_str() && *end == '\0' && std::isfinite(f);
    auto as_uint = [&](std::uint64_t max, auto* field) {
      if (!is_uint || u > max) return false;
      *field = static_cast<std::remove_pointer_t<decltype(field)>>(u);
      return true;
    };
    auto as_real = [&](double* field) {
      *field = f;
      return is_real;
    };
    constexpr std::uint64_t kU32 = UINT32_MAX;
    constexpr std::uint64_t kU64 = UINT64_MAX;
    bool ok = false;
    if (key == "version") {
      if (is_uint && u != kConfigVersion) {
        *error = StrPrintf("config version %llu, expected %d",
                           static_cast<unsigned long long>(u),
                           kConfigVersion);
        return false;
      }
      ok = saw_version = is_uint;
    } else if (key == "kind") {
      ok = as_uint(static_cast<std::uint64_t>(SchemeKind::kLazyMaster),
                   &out->kind);
    } else if (key == "nodes") {
      ok = as_uint(kU32, &out->nodes);
    } else if (key == "db_size") {
      ok = as_uint(kU64, &out->db_size);
    } else if (key == "tps") {
      ok = as_real(&out->tps);
    } else if (key == "actions") {
      ok = as_uint(kU32, &out->actions);
    } else if (key == "action_time") {
      ok = as_real(&out->action_time);
    } else if (key == "sim_seconds") {
      ok = as_real(&out->sim_seconds);
    } else if (key == "seed") {
      ok = as_uint(kU64, &out->seed);
    } else if (key == "poisson_arrivals") {
      ok = as_uint(1, &out->poisson_arrivals);
    } else if (key == "mix_write") {
      ok = as_real(&out->mix.write);
    } else if (key == "mix_add") {
      ok = as_real(&out->mix.add);
    } else if (key == "mix_subtract") {
      ok = as_real(&out->mix.subtract);
    } else if (key == "mix_append") {
      ok = as_real(&out->mix.append);
    } else if (key == "mix_read") {
      ok = as_real(&out->mix.read);
    } else if (key == "num_shards") {
      ok = as_uint(kU32, &out->num_shards);
    } else if (key == "batch_flush_window") {
      ok = as_real(&out->batch_flush_window);
    } else if (key == "batch_max_updates") {
      ok = as_uint(kU64, &out->batch_max_updates);
    } else if (key == "hot_fraction") {
      ok = as_real(&out->hot_fraction);
    } else if (key == "hot_shards") {
      ok = as_uint(kU32, &out->hot_shards);
    } else if (key == "skew_shards") {
      ok = as_uint(kU32, &out->skew_shards);
    } else if (key == "fault_drop_probability") {
      ok = as_real(&out->fault_drop_probability);
    } else if (key == "fault_partition_cycle") {
      ok = as_uint(1, &out->fault_partition_cycle);
    } else if (key == "fault_crash_cycle") {
      ok = as_uint(1, &out->fault_crash_cycle);
    } else if (key == "durability") {
      ok = as_uint(static_cast<std::uint64_t>(DurabilityMode::kGroup),
                   &out->durability);
    } else if (key == "wal_flush_latency") {
      ok = as_real(&out->wal_flush_latency);
    } else if (key == "wal_group_window") {
      ok = as_real(&out->wal_group_window);
    } else if (key == "wal_group_max_records") {
      ok = as_uint(kU64, &out->wal_group_max_records);
    } else if (key == "wal_segment_bytes") {
      ok = as_uint(kU64, &out->wal_segment_bytes);
    } else if (key == "wal_fsync") {
      ok = as_uint(1, &out->wal_fsync);
    } else if (key == "enable_metrics") {
      ok = as_uint(1, &out->enable_metrics);
    } else if (key == "record_series") {
      ok = as_uint(1, &out->record_series);
    } else if (key == "series_interval_seconds") {
      ok = as_real(&out->series_interval_seconds);
    } else if (key == "backend") {
      ok = as_uint(static_cast<std::uint64_t>(RuntimeBackend::kThreads),
                   &out->backend);
    } else if (key == "drain") {
      ok = as_uint(1, &out->drain);
    } else if (key == "run_invariant_checker") {
      ok = as_uint(1, &out->run_invariant_checker);
    } else {
      *error = StrPrintf("unknown config key: %s", key.c_str());
      return false;
    }
    if (!ok) {
      *error = StrPrintf("malformed config value in: %s", line.c_str());
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
        &cluster.sim(), [&ctx](const std::string& why) { ctx.Fail(why); });
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

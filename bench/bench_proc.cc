// E17 — the multi-process socket backend vs the sim oracle. Runs each
// scheme configuration in-process (the oracle) and as one forked OS
// process per node with every cross-node delivery rendezvoused over
// CRC-framed Unix-domain sockets (src/proc), then checks that final
// state digest, per-shard digest matrix, and commit counts are
// bit-identical — the differential suite's property, re-verified in
// the bench artifact — and reports what the process backend costs:
// frames and bytes on the wire, writev/read syscalls, wall clock.
//
// Rows carry backend "sim" / "proc" plus the digests as hex strings,
// so tools/diff_digests.py re-checks the cross-backend equality from
// BENCH_proc.json alone — same artifact pipeline as E15. A mismatch
// also fails THIS binary (nonzero exit).

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "bench/harness.h"
#include "bench/proc_harness.h"

namespace tdr::bench {
namespace {

constexpr std::uint64_t kSeeds[] = {1, 2, 3};

double WallSeconds(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

SimConfig Config(SchemeKind kind, std::uint64_t seed) {
  SimConfig c;
  c.kind = kind;
  c.nodes = 4;
  c.db_size = 128;
  c.tps = 25;
  c.actions = 4;
  c.action_time = 0.01;
  c.sim_seconds = 2;
  c.seed = seed;
  c.num_shards = 2;
  c.drain = true;
  c.run_invariant_checker = true;
  if (kind == SchemeKind::kLazyGroup || kind == SchemeKind::kLazyMaster) {
    c.batch_flush_window = 0.05;
    c.batch_max_updates = 8;
  }
  return c;
}

/// Crash/recovery under WAL group commit — the faulted rows, grouped
/// apart by fault_plan in diff_digests.py.
SimConfig FaultedConfig(SchemeKind kind, std::uint64_t seed) {
  SimConfig c = Config(kind, seed);
  c.fault_crash_cycle = true;
  c.durability = DurabilityMode::kGroup;
  return c;
}

obs::Json OracleRow(const SimConfig& config, const SimOutcome& out) {
  obs::Json row = ReportRow(config, out);
  row.Set("backend", "sim");
  row.Set("state_digest", HexDigest(out.state_digest));
  obs::Json shards = obs::Json::Array();
  for (std::uint64_t d : out.shard_digests) shards.Push(HexDigest(d));
  row.Set("shard_digests", std::move(shards));
  return row;
}

obs::Json ProcRow(const SimConfig& config, const ProcOutcome& out,
                  double wall_seconds) {
  obs::Json row = obs::Json::Object();
  row.Set("scheme", SchemeKindName(config.kind));
  row.Set("seed", config.seed);
  row.Set("nodes", static_cast<std::uint64_t>(config.nodes));
  row.Set("fault_plan", FaultPlanName(config));
  row.Set("backend", "proc");
  row.Set("committed", out.committed);
  row.Set("state_digest", HexDigest(out.state_digest));
  obs::Json shards = obs::Json::Array();
  for (std::uint64_t d : out.shard_digests) shards.Push(HexDigest(d));
  row.Set("shard_digests", std::move(shards));
  // Transport cost columns, summed over all node processes.
  // Nondeterministic syscall/wall columns are reported, never compared.
  for (const char* name :
       {"proc.frames_sent", "proc.frames_received", "proc.bytes_sent",
        "proc.bytes_received", "proc.deliveries_shipped",
        "proc.deliveries_verified", "proc.writev_calls", "proc.read_calls",
        "proc.partial_writes", "proc.partial_frames", "proc.eagain_waits"}) {
    row.Set(name, out.Counter(name));
  }
  row.Set("wall_seconds", wall_seconds);
  return row;
}

}  // namespace

int Main() {
  PrintBanner("E17", "Multi-process socket backend vs the sim oracle",
              "post-paper engineering: fork-per-node differential check");

  constexpr SchemeKind kAll[] = {
      SchemeKind::kEagerGroup,
      SchemeKind::kEagerMaster,
      SchemeKind::kLazyGroup,
      SchemeKind::kLazyMaster,
  };

  SimConfig base = Config(kAll[0], kSeeds[0]);
  obs::RunReport report = MakeReport("bench_proc", base);
  report.SetConfig("backends", "sim,proc");
  report.SetConfig("seeds", static_cast<std::uint64_t>(std::size(kSeeds)));

  std::printf("%14s | %5s | %7s | %16s | %7s | %9s | %8s\n", "scheme",
              "seed", "plan", "state digest", "frames", "bytes", "wall ms");
  std::printf("---------------+-------+---------+------------------+--------"
              "-+-----------+---------\n");

  std::uint64_t mismatches = 0;
  std::uint64_t proc_failures = 0;
  auto run_pair = [&](const SimConfig& config, const char* plan_label) {
    const SimOutcome oracle = RunScheme(config);
    const auto start = std::chrono::steady_clock::now();
    const ProcOutcome proc = RunSchemeMultiProcess(config);
    const double wall = WallSeconds(start);
    if (!proc.ok) {
      ++proc_failures;
      std::printf("%14s | %5llu | %7s | proc run FAILED: %s\n",
                  std::string(SchemeKindName(config.kind)).c_str(),
                  (unsigned long long)config.seed, plan_label,
                  proc.error.c_str());
      return;
    }
    const bool equal = oracle.state_digest == proc.state_digest &&
                       oracle.shard_digests == proc.shard_digests &&
                       oracle.committed == proc.committed &&
                       proc.invariant_violations == 0;
    if (!equal) ++mismatches;
    std::printf("%14s | %5llu | %7s | %16s | %7llu | %9llu | %7.1f%s\n",
                std::string(SchemeKindName(config.kind)).c_str(),
                (unsigned long long)config.seed, plan_label,
                HexDigest(proc.state_digest).c_str(),
                (unsigned long long)proc.Counter("proc.frames_sent"),
                (unsigned long long)proc.Counter("proc.bytes_sent"),
                wall * 1e3, equal ? "" : "  << MISMATCH");
    report.AddRow(OracleRow(config, oracle));
    report.AddRow(ProcRow(config, proc, wall));
  };

  for (SchemeKind kind : kAll) {
    for (std::uint64_t seed : kSeeds) {
      run_pair(Config(kind, seed), "none");
    }
  }
  // Faulted rows: lazy master keeps real traffic on the wire across
  // the crash/recovery boundary.
  for (std::uint64_t seed : kSeeds) {
    run_pair(FaultedConfig(SchemeKind::kLazyMaster, seed), "crash");
  }

  std::printf(
      "\n%llu mismatches, %llu failed runs across %zu (scheme, seed, plan)"
      " pairs.\nEach proc row is one coordinator + %u forked node"
      " processes; every\ncross-node delivery rendezvoused over a"
      " CRC-framed socket frame, so\nthe digest columns above must match"
      " the sim oracle's bit for bit.\n",
      (unsigned long long)mismatches, (unsigned long long)proc_failures,
      std::size(kAll) * std::size(kSeeds) + std::size(kSeeds),
      base.nodes);

  WriteReport(report, "BENCH_proc.json");
  if (mismatches > 0 || proc_failures > 0) {
    std::fprintf(stderr, "FAIL: %llu digest mismatches, %llu failed runs\n",
                 (unsigned long long)mismatches,
                 (unsigned long long)proc_failures);
    return EXIT_FAILURE;
  }
  return EXIT_SUCCESS;
}

}  // namespace tdr::bench

int main() { return tdr::bench::Main(); }

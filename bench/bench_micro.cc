// Microbenchmarks (google-benchmark) for the substrate hot paths: event
// scheduling, lock acquisition, deadlock search, RNG, store digests,
// profile scopes, and the checksummed codecs (CRC32C, WAL record append,
// proc frame encode).
// These bound how large a simulated cluster the experiment benches can
// afford; they are not paper artifacts themselves.

#include <benchmark/benchmark.h>

#include <string>
#include <vector>

#include "obs/metrics.h"
#include "obs/profile.h"
#include "proc/frame.h"
#include "replication/cluster.h"
#include "replication/eager.h"
#include "sim/simulator.h"
#include "workload/workload.h"
#include "storage/object_store.h"
#include "txn/lock_manager.h"
#include "util/rng.h"
#include "wal/crc32c.h"
#include "wal/wal_format.h"

namespace tdr {
namespace {

void BM_SimulatorScheduleRun(benchmark::State& state) {
  const int kEvents = static_cast<int>(state.range(0));
  for (auto _ : state) {
    sim::Simulator sim;
    int fired = 0;
    for (int i = 0; i < kEvents; ++i) {
      sim.ScheduleAt(SimTime::Micros(i % 997), [&fired] { ++fired; });
    }
    sim.Run();
    benchmark::DoNotOptimize(fired);
  }
  state.SetItemsProcessed(state.iterations() * kEvents);
}
BENCHMARK(BM_SimulatorScheduleRun)->Arg(1024)->Arg(16384);

void BM_SimulatorSelfRescheduling(benchmark::State& state) {
  for (auto _ : state) {
    sim::Simulator sim;
    std::uint64_t ticks = 0;
    std::function<void()> tick = [&] {
      if (++ticks < 10000) sim.ScheduleAfter(SimTime::Micros(1), tick);
    };
    sim.ScheduleAfter(SimTime::Micros(1), tick);
    sim.Run();
    benchmark::DoNotOptimize(ticks);
  }
  state.SetItemsProcessed(state.iterations() * 10000);
}
BENCHMARK(BM_SimulatorSelfRescheduling);

void BM_LockAcquireReleaseUncontended(benchmark::State& state) {
  WaitForGraph graph;
  LockManager locks(0, 4096, &graph);
  TxnId txn = 1;
  ObjectId oid = 0;
  for (auto _ : state) {
    locks.Acquire(txn, oid, nullptr);
    locks.Release(txn, oid);
    ++txn;
    oid = (oid + 1) % 4096;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_LockAcquireReleaseUncontended);

void BM_LockConflictChainGrant(benchmark::State& state) {
  const int kChain = static_cast<int>(state.range(0));
  for (auto _ : state) {
    WaitForGraph graph;
    LockManager locks(0, 4096, &graph);
    locks.Acquire(1, 7, nullptr);
    for (TxnId t = 2; t <= static_cast<TxnId>(kChain); ++t) {
      locks.Acquire(t, 7, [] {});
    }
    locks.ReleaseAll(1);
    for (TxnId t = 2; t <= static_cast<TxnId>(kChain); ++t) {
      locks.ReleaseAll(t);
    }
    benchmark::DoNotOptimize(locks.WaiterCount());
  }
  state.SetItemsProcessed(state.iterations() * kChain);
}
BENCHMARK(BM_LockConflictChainGrant)->Arg(8)->Arg(64);

void BM_WaitForGraphCycleSearch(benchmark::State& state) {
  const TxnId kChain = static_cast<TxnId>(state.range(0));
  WaitForGraph graph;
  for (TxnId t = 1; t < kChain; ++t) graph.AddEdge(t, t + 1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(graph.HasCycleFrom(1));
  }
  state.SetItemsProcessed(state.iterations() * kChain);
}
BENCHMARK(BM_WaitForGraphCycleSearch)->Arg(16)->Arg(256);

void BM_ObjectStoreDigest(benchmark::State& state) {
  ObjectStore store(static_cast<std::uint64_t>(state.range(0)));
  for (ObjectId oid = 0; oid < store.size(); ++oid) {
    store.Put(oid, Value(static_cast<std::int64_t>(oid * 31)),
              Timestamp(oid + 1, 0));
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(store.Digest());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_ObjectStoreDigest)->Arg(1024)->Arg(65536);

// Lazy-group replica applies (ObjectStore::ApplyIfTimestampMatches)
// over 4 stores of 10,000 rows, sim-lazy-open's footprint, in seeded
// random order; every apply matches and installs. Arg 0 touches each row
// cold; arg 1 prefetches it 30 applies ahead, as the touch-ahead hint
// does when the apply is scheduled (DESIGN.md §12.5).
void BM_ReplicaApplyRandomRow(benchmark::State& state) {
  constexpr std::uint64_t kStores = 4;
  constexpr std::uint64_t kRows = 10000;
  constexpr std::size_t kOps = std::size_t{1} << 18;
  constexpr std::size_t kAhead = 30;
  struct Apply {
    std::uint32_t store;
    std::uint32_t oid;
    std::uint64_t old_counter;  // the row's timestamp when this apply runs
  };
  std::vector<Apply> applies(kOps);
  std::vector<std::uint64_t> last(kStores * kRows, 0);
  Rng rng(2026);
  for (std::size_t i = 0; i < kOps; ++i) {
    Apply& a = applies[i];
    a.store = static_cast<std::uint32_t>(rng.UniformInt(kStores));
    a.oid = static_cast<std::uint32_t>(rng.UniformInt(kRows));
    std::uint64_t& row_last = last[a.store * kRows + a.oid];
    a.old_counter = row_last;
    row_last = i + 1;
  }
  std::vector<ObjectStore> stores(kStores, ObjectStore(kRows));
  const bool prefetch = state.range(0) != 0;
  std::size_t i = 0;
  std::uint64_t conflicts = 0;
  for (auto _ : state) {
    if (i == kOps) {
      state.PauseTiming();
      for (ObjectStore& store : stores) store.ResetToZero();
      i = 0;
      state.ResumeTiming();
    }
    if (prefetch && i + kAhead < kOps) {
      const Apply& ahead = applies[i + kAhead];
      stores[ahead.store].Prefetch(ahead.oid);
    }
    const Apply& a = applies[i];
    const Status s = stores[a.store].ApplyIfTimestampMatches(
        a.oid, Value(static_cast<std::int64_t>(i)),
        Timestamp(a.old_counter, 0), Timestamp(i + 1, 0));
    conflicts += s.ok() ? 0 : 1;
    benchmark::ClobberMemory();
    ++i;
  }
  if (conflicts != 0) state.SkipWithError("a replica apply conflicted");
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ReplicaApplyRandomRow)->Arg(0)->Arg(1);

// ns per obs::ProfileScope: /0 on a default (no-op) handle, what every
// scope on the hot path costs with metrics off; /1 on a registry's
// recording handle (two steady_clock reads plus a Welford update).
void BM_ProfileScope(benchmark::State& state) {
  obs::MetricsRegistry registry;
  const obs::MetricsRegistry::StatsHandle handle =
      state.range(0) != 0 ? registry.GetProfile("profile.bench")
                          : obs::MetricsRegistry::StatsHandle();
  for (auto _ : state) {
    obs::ProfileScope scope(handle);
    benchmark::ClobberMemory();
  }
}
BENCHMARK(BM_ProfileScope)->Arg(0)->Arg(1);

void BM_RngSampleWithoutReplacement(benchmark::State& state) {
  Rng rng(99);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        rng.SampleWithoutReplacement(10000, state.range(0)));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_RngSampleWithoutReplacement)->Arg(4)->Arg(64);

void BM_Crc32c(benchmark::State& state) {
  const std::vector<unsigned char> bytes(
      static_cast<std::size_t>(state.range(0)), 0x5a);
  for (auto _ : state) {
    benchmark::DoNotOptimize(wal::Crc32c(bytes.data(), bytes.size()));
  }
  state.SetBytesProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_Crc32c)->Arg(64)->Arg(4096);

// One commit-path record append into a buffer whose capacity is kept,
// as the WAL writer's pending buffer is. Arg 0: scalar value; n > 0: an
// n-item list.
void BM_WalAppendRecord(benchmark::State& state) {
  const auto items = static_cast<std::int64_t>(state.range(0));
  Value::List list;
  for (std::int64_t i = 0; i < items; ++i) list.push_back(i * 7919);
  const Value value = items == 0 ? Value(std::int64_t{42}) : Value(list);
  std::vector<std::uint8_t> buf;
  std::uint64_t lsn = 0;
  for (auto _ : state) {
    buf.clear();
    ++lsn;
    wal::AppendRecord(lsn, /*txn=*/lsn + 1000, /*oid=*/lsn % 2048,
                      /*shard=*/3, Timestamp(lsn, 1), Timestamp(lsn + 1, 2),
                      value, &buf);
    benchmark::DoNotOptimize(buf.data());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_WalAppendRecord)->Arg(0)->Arg(8);

void BM_EncodeFrame(benchmark::State& state) {
  proc::Frame frame;
  frame.origin = 1;
  frame.dest = 2;
  frame.time_us = 123456;
  frame.schedule_fp = 0x9e3779b97f4a7c15ULL;
  frame.payload.assign(16, 'p');
  std::string out;
  for (auto _ : state) {
    out.clear();
    ++frame.pair_seq;
    proc::EncodeFrame(frame, &out);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_EncodeFrame);

void BM_EndToEndEagerCluster(benchmark::State& state) {
  // One full simulated second of a loaded 3-node eager cluster — the
  // experiment benches' inner loop.
  for (auto _ : state) {
    Cluster::Options copts;
    copts.num_nodes = 3;
    copts.db_size = 1000;
    copts.action_time = SimTime::Millis(10);
    Cluster cluster(copts);
    EagerGroupScheme scheme(&cluster);
    Rng rng = cluster.ForkRng();
    ProgramGenerator::Options gopts;
    gopts.db_size = copts.db_size;
    gopts.actions = 4;
    ProgramGenerator gen(gopts);
    for (int i = 0; i < 50; ++i) {
      NodeId origin = static_cast<NodeId>(rng.UniformInt(3));
      scheme.Submit(origin, gen.Next(rng), nullptr);
    }
    cluster.runtime().Run();
    benchmark::DoNotOptimize(cluster.executor().committed());
  }
  state.SetItemsProcessed(state.iterations() * 50);
}
BENCHMARK(BM_EndToEndEagerCluster);

}  // namespace
}  // namespace tdr

BENCHMARK_MAIN();

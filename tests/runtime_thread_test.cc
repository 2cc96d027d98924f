// ThreadRuntime semantics: parity with the sim backend it wraps,
// exclusive events inline on the coordinator, parallel groups on the
// node workers, shutdown idempotence, the schedule-through-the-runtime
// precondition, and the SharedPool teardown-order contract on a
// thread-backend cluster. Runs under TSan
// via the `tsan`/`runtime` ctest labels.

#include "runtime/thread_runtime.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "net/message_pool.h"
#include "replication/cluster.h"
#include "replication/lazy_group.h"
#include "sim/simulator.h"
#include "txn/program.h"

namespace tdr {
namespace {

using runtime::ThreadRuntime;

// The same schedule/cancel/repeat scenario produces the same fire log
// (ids, order, virtual times) through a ThreadRuntime as through the
// bare Simulator — the interface contract the differential suite
// depends on, in miniature.
TEST(ThreadRuntimeTest, SemanticsMatchBareSimulator) {
  auto scenario = [](runtime::Runtime& rt) {
    std::vector<std::pair<int, double>> log;
    rt.ScheduleAt(SimTime::Millis(10), [&] { log.emplace_back(1, 0.0); });
    rt.ScheduleAfter(SimTime::Millis(5),
                     [&] { log.emplace_back(2, rt.Now().seconds()); });
    sim::EventId dead =
        rt.ScheduleAt(SimTime::Millis(7), [&] { log.emplace_back(3, 0.0); });
    EXPECT_TRUE(rt.Cancel(dead));
    sim::EventId tick = rt.RepeatEvery(
        SimTime::Millis(4), [&] { log.emplace_back(4, rt.Now().seconds()); });
    rt.RunUntil(SimTime::Millis(12));
    rt.Cancel(tick);
    rt.Run();
    EXPECT_EQ(rt.Now(), SimTime::Millis(12));
    return log;
  };
  sim::Simulator plain;
  auto expected = scenario(plain);

  sim::Simulator clock;
  ThreadRuntime threads(&clock, /*num_nodes=*/3, {}, nullptr);
  auto actual = scenario(threads);
  EXPECT_EQ(actual, expected);
  EXPECT_EQ(threads.dispatched() + threads.inline_events(),
            static_cast<std::uint64_t>(expected.size()));
}

// Exclusive events run on the coordinator whatever their node tag:
// nothing crosses to a worker, and no mailbox sees a push.
TEST(ThreadRuntimeTest, NodeTaggedExclusiveEventsRunOnTheCoordinator) {
  sim::Simulator clock;
  ThreadRuntime rt(&clock, /*num_nodes=*/3, {}, nullptr);
  std::vector<std::thread::id> seen(3);
  for (std::uint32_t node = 0; node < 3; ++node) {
    rt.ScheduleAfterNode(node, SimTime::Millis(1 + node), [&seen, node] {
      seen[node] = std::this_thread::get_id();
    });
  }
  rt.Run();
  for (std::uint32_t node = 0; node < 3; ++node) {
    EXPECT_EQ(seen[node], std::this_thread::get_id()) << "node " << node;
    EXPECT_EQ(rt.mailbox(node).pushed(), 0u) << "node " << node;
  }
  EXPECT_EQ(rt.dispatched(), 0u);
  EXPECT_EQ(rt.inline_events(), 3u);
  EXPECT_EQ(rt.epochs(), 0u);
}

TEST(ThreadRuntimeTest, ShutdownIsIdempotentAndFallsBackInline) {
  sim::Simulator clock;
  ThreadRuntime rt(&clock, /*num_nodes=*/2, {}, nullptr);
  int ran = 0;
  rt.ScheduleParallelAfterNode(0, SimTime::Millis(1), [&] { ++ran; });
  rt.Run();
  EXPECT_EQ(ran, 1);
  rt.Shutdown();
  rt.Shutdown();  // idempotent
  EXPECT_TRUE(rt.stopped());
  // Post-shutdown scheduling still works — parallel groups run inline
  // on the coordinator, same order, same results.
  std::thread::id where;
  rt.ScheduleParallelAfterNode(1, SimTime::Millis(1),
                               [&] { where = std::this_thread::get_id(); });
  rt.Run();
  EXPECT_EQ(where, std::this_thread::get_id());
  EXPECT_EQ(rt.dispatched(), 1u);
  EXPECT_EQ(rt.inline_events(), 1u);
}

TEST(ThreadRuntimeTest, OutOfRangeNodeRunsInline) {
  sim::Simulator clock;
  ThreadRuntime rt(&clock, /*num_nodes=*/2, {}, nullptr);
  std::thread::id where;
  rt.ScheduleAfterNode(7, SimTime::Millis(1),
                       [&] { where = std::this_thread::get_id(); });
  rt.Run();
  EXPECT_EQ(where, std::this_thread::get_id());
  EXPECT_EQ(rt.inline_events(), 1u);
}

// Same-timestamp semantics: events on every node at one instant, an
// untagged event and a cancel of a later same-time event, zero-delay
// follow-ups at the same instant, and two runs of parallel-class
// events split by an exclusive one. Each parallel task schedules a
// zero-delay follow-up, which must still fire after every event
// already pending at that instant. The fire log (order and virtual
// times) must match the bare simulator's.
TEST(EpochDispatchTest, SemanticsMatchBareSimulator) {
  auto scenario = [](runtime::Runtime& rt) {
    std::vector<std::pair<int, double>> log;
    sim::EventId victim = sim::kInvalidEventId;
    for (std::uint32_t node = 0; node < 4; ++node) {
      rt.ScheduleAtNode(node, SimTime::Millis(5), [&rt, &log, node] {
        log.emplace_back(static_cast<int>(node), rt.Now().seconds());
        rt.ScheduleAfterNode((node + 1) % 4, SimTime::Zero(),
                             [&rt, &log, node] {
                               log.emplace_back(10 + static_cast<int>(node),
                                                rt.Now().seconds());
                             });
      });
    }
    rt.ScheduleAt(SimTime::Millis(5),
                  [&] { log.emplace_back(20, rt.Now().seconds()); });
    rt.ScheduleAtNode(2, SimTime::Millis(5), [&] {
      log.emplace_back(21, rt.Now().seconds());
      EXPECT_TRUE(rt.Cancel(victim));
    });
    victim = rt.ScheduleAtNode(3, SimTime::Millis(5),
                               [&] { log.emplace_back(22, 0.0); });
    // Parallel tasks write only their own node's slot; their follow-ups
    // are exclusive and write the shared log.
    std::vector<std::vector<double>> par(4);
    auto parallel = [&rt, &log, &par](std::uint32_t node) {
      rt.ScheduleParallelAtNode(node, SimTime::Millis(5), [&, node] {
        par[node].push_back(rt.Now().seconds());
        rt.ScheduleAfterNode(node, SimTime::Zero(), [&rt, &log, node] {
          log.emplace_back(30 + static_cast<int>(node), rt.Now().seconds());
        });
      });
    };
    parallel(0);
    parallel(1);
    rt.ScheduleAt(SimTime::Millis(5),
                  [&] { log.emplace_back(40, rt.Now().seconds()); });
    parallel(2);
    parallel(3);
    rt.RunUntil(SimTime::Millis(8));
    EXPECT_EQ(rt.Now(), SimTime::Millis(8));
    for (std::uint32_t node = 0; node < 4; ++node) {
      for (double at : par[node]) {
        log.emplace_back(50 + static_cast<int>(node), at);
      }
    }
    return log;
  };
  sim::Simulator plain;
  auto expected = scenario(plain);
  // The oracle itself: the parallel tasks' follow-ups fire last at 5 ms.
  ASSERT_EQ(expected.size(), 19u);
  for (int k = 0; k < 4; ++k) EXPECT_EQ(expected[11 + k].first, 30 + k);

  sim::Simulator clock;
  ThreadRuntime threads(&clock, /*num_nodes=*/4, {}, nullptr);
  auto actual = scenario(threads);
  EXPECT_EQ(actual, expected);
  // Two parallel groups of two: the exclusive event between them
  // splits the run; everything else ran inline.
  EXPECT_EQ(threads.epochs(), 2u);
  EXPECT_EQ(threads.epoch_width_max(), 2u);
  EXPECT_EQ(threads.dispatched(), 4u);
}

// Same-timestamp parallel-class events form ONE group: each node's
// tasks run on that node's worker (never the coordinator), distinct
// nodes on distinct threads, one mailbox push per node, and same-node
// tasks share their thread in FIFO order.
TEST(EpochDispatchTest, ParallelGroupRunsEachNodeOnItsWorker) {
  sim::Simulator clock;
  ThreadRuntime rt(&clock, /*num_nodes=*/4, {}, nullptr);
  std::thread::id coordinator = std::this_thread::get_id();
  constexpr int kPerNode = 3;
  // Written only by node n's worker.
  std::vector<std::vector<std::thread::id>> seen(4);
  std::vector<std::vector<int>> order(4);
  for (int k = 0; k < kPerNode; ++k) {
    for (std::uint32_t node = 0; node < 4; ++node) {
      rt.ScheduleParallelAtNode(node, SimTime::Millis(1), [&, node, k] {
        seen[node].push_back(std::this_thread::get_id());
        order[node].push_back(k);
      });
    }
  }
  rt.Run();
  EXPECT_EQ(rt.epochs(), 1u);
  EXPECT_EQ(rt.epoch_width_max(), 4u * kPerNode);
  EXPECT_EQ(rt.dispatched(), 4u * kPerNode);
  EXPECT_EQ(rt.inline_events(), 0u);
  for (std::uint32_t node = 0; node < 4; ++node) {
    SCOPED_TRACE("node " + std::to_string(node));
    EXPECT_EQ(rt.mailbox(node).pushed(), 1u);
    EXPECT_EQ(order[node], (std::vector<int>{0, 1, 2}));
    ASSERT_EQ(seen[node].size(), static_cast<std::size_t>(kPerNode));
    for (const std::thread::id& id : seen[node]) {
      EXPECT_EQ(id, seen[node][0]);
    }
    EXPECT_NE(seen[node][0], coordinator);
    for (std::uint32_t other = 0; other < node; ++other) {
      EXPECT_NE(seen[node][0], seen[other][0]);
    }
  }
}

// Parallel events on ONE node at one timestamp stay FIFO on that
// node's worker inside their group — the per-node serial guarantee.
TEST(EpochDispatchTest, SameNodeSameTimeKeepsFifoOrder) {
  sim::Simulator clock;
  ThreadRuntime rt(&clock, /*num_nodes=*/2, {}, nullptr);
  std::vector<int> order;
  for (int i = 0; i < 5; ++i) {
    rt.ScheduleParallelAtNode(1, SimTime::Millis(1),
                              [&order, i] { order.push_back(i); });
  }
  rt.Run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
  EXPECT_EQ(rt.epochs(), 1u);
  EXPECT_EQ(rt.epoch_width_max(), 5u);
  EXPECT_EQ(rt.mailbox(1).pushed(), 1u);
}

// Parallel-class tasks on distinct nodes genuinely overlap in wall
// time: each parks until it has seen the other inside the wave. Under
// serial execution this would time out and fail.
TEST(EpochDispatchTest, ParallelClassTasksOverlapInWallTime) {
  sim::Simulator clock;
  ThreadRuntime rt(&clock, /*num_nodes=*/2, {}, nullptr);
  std::atomic<int> inside{0};
  std::atomic<int> overlapped{0};
  for (std::uint32_t node = 0; node < 2; ++node) {
    rt.ScheduleParallelAtNode(node, SimTime::Millis(1), [&] {
      inside.fetch_add(1);
      auto deadline = std::chrono::steady_clock::now() +
                      std::chrono::seconds(5);
      while (inside.load() < 2 &&
             std::chrono::steady_clock::now() < deadline) {
        std::this_thread::yield();
      }
      if (inside.load() >= 2) overlapped.fetch_add(1);
    });
  }
  rt.Run();
  EXPECT_EQ(overlapped.load(), 2);
}

// Schedules made INSIDE a parallel-class task are deferred (id
// kInvalidEventId, fire-and-forget) and fire once the group retires.
TEST(EpochDispatchTest, DeferredScheduleFromParallelTaskFires) {
  sim::Simulator clock;
  ThreadRuntime rt(&clock, /*num_nodes=*/2, {}, nullptr);
  std::atomic<bool> followed{false};
  std::atomic<std::uint64_t> deferred_id{1};
  rt.ScheduleParallelAtNode(0, SimTime::Millis(1), [&] {
    deferred_id.store(rt.ScheduleAfterNode(0, SimTime::Millis(1),
                                           [&] { followed.store(true); }));
  });
  rt.Run();
  EXPECT_EQ(deferred_id.load(), sim::kInvalidEventId);
  EXPECT_TRUE(followed.load());
}

// An exclusive event cancelling a SAME-timestamp, later-seq event must
// hit it — the GroupCommitter window-cancel pattern. Exclusive events
// run as they fire, so the victim is still pending in the clock.
TEST(EpochDispatchTest, CancelReachesCollectedSameTimestampEvent) {
  sim::Simulator clock;
  ThreadRuntime rt(&clock, /*num_nodes=*/2, {}, nullptr);
  bool victim_ran = false;
  bool cancel_hit = false;
  sim::EventId victim = sim::kInvalidEventId;
  rt.ScheduleAtNode(0, SimTime::Millis(5),
                    [&] { cancel_hit = rt.Cancel(victim); });
  victim = rt.ScheduleAtNode(1, SimTime::Millis(5),
                             [&] { victim_ran = true; });
  rt.Run();
  EXPECT_TRUE(cancel_hit);
  EXPECT_FALSE(victim_ran);
}

// An event scheduled directly on the wrapped simulator would bypass the
// runtime's group bookkeeping. The runtime must refuse loudly instead
// of silently reordering.
TEST(ThreadRuntimeDeathTest, DirectSimulatorEventAbortsWaveCollection) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  auto run = [] {
    sim::Simulator clock;
    ThreadRuntime rt(&clock, /*num_nodes=*/2, {}, nullptr);
    rt.ScheduleAtNode(0, SimTime::Millis(1), [] {});
    clock.ScheduleAt(SimTime::Millis(1), [] {});  // bypasses the runtime
    rt.Run();
  };
  EXPECT_DEATH(run(), "scheduled directly on the underlying Simulator");
}

// Teardown-order contract on the REAL cluster with the thread backend:
// a payload lease captured in an undelivered (parked) message legally
// outlives the scheme that owns the pool. The scheme dies first, the
// network (and its parked messages, and the thread runtime's workers)
// after — nothing may crash or leak, and the last lease frees the
// shared slot store.
TEST(ThreadRuntimeClusterTest, SharedPoolLeaseOutlivesSchemeAtShutdown) {
  Cluster::Options copts;
  copts.num_nodes = 3;
  copts.db_size = 20;
  copts.backend = RuntimeBackend::kThreads;
  auto cluster = std::make_unique<Cluster>(copts);
  {
    auto scheme = std::make_unique<LazyGroupScheme>(cluster.get());
    // Park propagation to node 2: it disconnects, so the replica-update
    // messages (holding record-buffer leases) sit in its outbox queue.
    cluster->net().SetConnected(2, false);
    for (int i = 0; i < 5; ++i) {
      Program p;
      p.Add(Op::Write(i, 100 + i));
      scheme->Submit(0, p, nullptr);
    }
    cluster->runtime().Run();
    // Node 0 and 1 converged; node 2 still holds cold values.
    EXPECT_TRUE(cluster->node(0)->store().SameValuesAs(
        cluster->node(1)->store()));
    EXPECT_FALSE(cluster->Converged());
    // Scheme destroyed HERE, leases still parked in the network.
  }
  // Destroying the cluster joins the workers (stop/drain barrier) and
  // releases the parked messages — the leases' release path runs after
  // their pool's owner is gone. ASan/TSan guard this teardown.
  cluster.reset();
}

}  // namespace
}  // namespace tdr

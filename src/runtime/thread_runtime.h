#ifndef TDR_RUNTIME_THREAD_RUNTIME_H_
#define TDR_RUNTIME_THREAD_RUNTIME_H_

#include <chrono>
#include <cstdint>
#include <memory>
#include <thread>
#include <vector>

#include "obs/metrics.h"
#include "runtime/mailbox.h"
#include "runtime/runtime.h"
#include "runtime/task_pool.h"
#include "sim/simulator.h"

namespace tdr::runtime {

/// Real-threads execution backend: every cluster node gets its own OS
/// worker thread with an MPSC mailbox, and same-timestamp parallel
/// groups overlap across those workers.
///
/// Ordering is the key design decision. The cluster shares genuinely
/// cross-node state — one Executor, one WaitForGraph, one metrics
/// registry — so nodes cannot fire arbitrary events concurrently
/// without giving up the semantics the paper's model (and the sim
/// oracle) defines. The backend wraps the cluster's own sim::Simulator
/// as the virtual clock and event order, and a coordinator (whoever
/// calls Run/RunUntil) steps it one event at a time:
///
///  * an exclusive event (every Schedule*/Schedule*Node) runs inline
///    on the coordinator, inside its wrapper, as it fires — exactly
///    where the bare simulator would run it;
///  * consecutive same-timestamp ScheduleParallel* events — callbacks
///    that touch only node-private state, see runtime.h — collect into
///    one pending GROUP. The group is retired before the next exclusive
///    event runs or the timestamp changes: one chain per node worker
///    (same-node tasks keep FIFO order), untagged tasks on the
///    coordinator, one EpochGate wait, then the schedules the group's
///    tasks issued are replayed in slot order.
///
/// The oracle contract holds by construction: exclusive events execute
/// in exact (time, seq) order on one thread, a group only contains
/// events whose mutual order is unobservable, and the deferred replay
/// assigns sequence numbers exactly as the serial sim would have.
/// Because a pending group is always retired before any task that may
/// Cancel runs, Cancel is the clock's own. runtime_differential_test
/// and wal_differential_test check every scheme against the sim oracle.
///
/// Every event must be scheduled THROUGH this runtime (true for the
/// whole cluster): an event scheduled directly on the underlying
/// simulator would bypass the group bookkeeping. RunEpochs checks on
/// every step that exactly one runtime wrapper fired, and aborts on a
/// violation.
///
/// Dispatch is allocation-free: scheduling acquires a pooled Task
/// (runtime/task_pool.h), moves the callback into it, and registers a
/// two-pointer wrapper with the event core — inside sim::Callback's
/// inline buffer, so steady state allocates nothing
/// (runtime_task_pool_test pins this with the alloc-audit harness).
///
/// Mailboxes are unbounded and need no backpressure: the coordinator
/// waits on every group's gate before stepping on, so a mailbox holds
/// at most one chain and its depth never exceeds the widest group.
class ThreadRuntime final : public Runtime {
 public:
  /// Epoch dispatch is the only mode. The enum and Options::dispatch
  /// stay only so that perfledger's `dispatch = DispatchMode::kEpoch`
  /// keeps compiling.
  enum class DispatchMode : std::uint8_t {
    kEpoch = 1,
  };

  struct Options {
    DispatchMode dispatch = DispatchMode::kEpoch;
  };

  /// `clock` is the cluster's own simulator, used as virtual clock and
  /// event core (never Run directly when this backend owns it).
  /// `metrics` may be null; profile metrics (worker busy time, mailbox
  /// depth, epoch shape, wall/sim ratio) are published on Shutdown.
  /// Workers time their tasks only when there is a registry to publish to.
  ThreadRuntime(sim::Simulator* clock, std::uint32_t num_nodes,
                Options options, obs::MetricsRegistry* metrics);

  /// Shutdown(), then joins every worker.
  ~ThreadRuntime() override;

  // --- Runtime interface --------------------------------------------

  SimTime Now() const override { return clock_->Now(); }
  sim::EventId ScheduleAt(SimTime when, sim::Callback fn) override {
    return ScheduleAtNode(kAnyNode, when, std::move(fn));
  }
  sim::EventId ScheduleAfter(SimTime delay, sim::Callback fn) override {
    return ScheduleAfterNode(kAnyNode, delay, std::move(fn));
  }
  sim::EventId RepeatEvery(SimTime interval, sim::Callback fn) override;
  bool Cancel(sim::EventId id) override { return clock_->Cancel(id); }
  std::uint64_t RunUntil(SimTime horizon) override;
  std::uint64_t Run(std::uint64_t max_events = (1ULL << 32)) override;
  bool Idle() const override { return clock_->Idle(); }
  std::size_t PendingEvents() const override {
    return clock_->PendingEvents();
  }
  sim::EventId ScheduleAtNode(std::uint32_t node, SimTime when,
                              sim::Callback fn) override {
    return Schedule(node, when, std::move(fn), ExecClass::kExclusive);
  }
  sim::EventId ScheduleAfterNode(std::uint32_t node, SimTime delay,
                                 sim::Callback fn) override {
    return Schedule(node, After(delay), std::move(fn),
                    ExecClass::kExclusive);
  }
  sim::EventId ScheduleParallelAtNode(std::uint32_t node, SimTime when,
                                      sim::Callback fn) override {
    return Schedule(node, when, std::move(fn), ExecClass::kParallel);
  }
  sim::EventId ScheduleParallelAfterNode(std::uint32_t node, SimTime delay,
                                         sim::Callback fn) override {
    return Schedule(node, After(delay), std::move(fn),
                    ExecClass::kParallel);
  }

  // --- Lifecycle ----------------------------------------------------

  /// Stop/drain barrier: closes every mailbox, waits for all workers to
  /// drain and rendezvous, joins them, publishes profile metrics.
  /// Idempotent; after shutdown every event runs inline on the caller.
  void Shutdown();

  bool stopped() const { return stopped_; }

  // --- Introspection (stress suite + bench_runtime) -----------------

  std::uint32_t workers() const {
    return static_cast<std::uint32_t>(workers_.size());
  }
  const Mailbox& mailbox(std::uint32_t node) const {
    return workers_[node]->box;
  }
  /// Group tasks executed on worker threads / every other event, run
  /// inline on the coordinator. Both are deterministic: the split is a
  /// pure function of the seeded scenario, not of wall-clock races.
  std::uint64_t dispatched() const { return dispatched_; }
  std::uint64_t inline_events() const { return inline_events_; }
  /// Parallel groups retired and the widest group (tasks).
  std::uint64_t epochs() const { return epochs_; }
  std::uint64_t epoch_width_max() const { return epoch_width_max_; }
  const TaskPool& task_pool() const { return *pool_; }
  /// Wall-clock seconds spent inside Run/RunUntil, and the virtual
  /// seconds they advanced — their ratio is the wall/sim speed metric.
  double wall_seconds() const { return wall_seconds_; }
  double sim_seconds() const { return sim_seconds_; }

 private:
  struct Worker {
    Mailbox box;
    std::chrono::steady_clock::duration busy{};
    std::thread thread;
  };

  /// RAII ownership of a pooled task inside a scheduling wrapper: the
  /// wrapper fire consumes (take()) the task; a wrapper destroyed
  /// without firing — cancellation, or simulator teardown — returns it
  /// to the pool. Holds the pool shared so wrappers still pending in
  /// the event core at simulator destruction (which may outlive this
  /// runtime) release into a live pool.
  class TaskLease {
   public:
    TaskLease(std::shared_ptr<TaskPool> pool, Task* task)
        : pool_(std::move(pool)), task_(task) {}
    TaskLease(TaskLease&& other) noexcept
        : pool_(std::move(other.pool_)), task_(other.task_) {
      other.task_ = nullptr;
    }
    TaskLease(const TaskLease&) = delete;
    TaskLease& operator=(const TaskLease&) = delete;
    TaskLease& operator=(TaskLease&&) = delete;
    ~TaskLease() {
      if (task_ != nullptr) pool_->Release(task_);
    }

    Task* take() {
      Task* t = task_;
      task_ = nullptr;
      return t;
    }
    Task* get() const { return task_; }

   private:
    std::shared_ptr<TaskPool> pool_;
    Task* task_;
  };

  SimTime After(SimTime delay) const {
    return clock_->Now() + (delay < SimTime::Zero() ? SimTime::Zero() : delay);
  }

  /// Every schedule funnels here: defers if called from inside a
  /// parallel-class task, else registers a pooled wrapper with the
  /// clock.
  sim::EventId Schedule(std::uint32_t node, SimTime when, sim::Callback fn,
                        ExecClass cls);
  /// Wrapper fire (one-shot or repeat tick): a parallel task joins the
  /// pending group; an exclusive one retires the group, then runs.
  void OnWrapperFire(Task* task);
  /// Invokes the task's callback (borrowed or owned) with the
  /// deferred-schedule context set.
  void RunTaskBody(Task* task);

  // --- Coordinator only ---------------------------------------------
  std::uint64_t RunEpochs(SimTime horizon, std::uint64_t max_events,
                          bool bounded_horizon);
  /// Runs the pending group across the workers, waits on the gate,
  /// replays its deferred schedules and releases its tasks.
  void RetireGroup();
  /// Executor for a group task: its node's worker, or kCoord for
  /// untagged tasks and after Shutdown().
  std::uint32_t LaneOf(const Task* task) const;

  void WorkerLoop(std::uint32_t index);
  void PublishMetrics();

  static constexpr std::uint32_t kCoord = 0xfffffffeu;
  /// Pooled task wrappers materialized at birth; exhaustion grows the
  /// pool (counted, see TaskPool::grow_events).
  static constexpr std::size_t kTaskPoolCapacity = 256;

  sim::Simulator* clock_;
  obs::MetricsRegistry* metrics_;
  std::shared_ptr<TaskPool> pool_;
  std::vector<std::unique_ptr<Worker>> workers_;
  StopBarrier barrier_;
  EpochGate epoch_gate_;  // the in-flight group's chains arrive here
  bool stopped_ = false;
  std::uint64_t dispatched_ = 0;
  std::uint64_t inline_events_ = 0;

  // Group state (coordinator-owned; workers see tasks via mailbox HB).
  /// Parallel tasks fired at Now() and not yet run, in seq order.
  std::vector<Task*> group_;
  /// Armed before each clock step; the runtime wrapper that step fires
  /// disarms it.
  bool stepping_ = false;
  std::uint64_t epochs_ = 0;
  std::uint64_t epoch_width_max_ = 0;
  // Scratch reused across groups (capacity sticks, no per-group allocs).
  std::vector<Task*> group_heads_;
  std::vector<Task*> group_tails_;
  obs::MetricsRegistry::StatsHandle epoch_width_profile_;

  double wall_seconds_ = 0;
  double sim_seconds_ = 0;
};

}  // namespace tdr::runtime

#endif  // TDR_RUNTIME_THREAD_RUNTIME_H_

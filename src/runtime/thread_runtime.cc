#include "runtime/thread_runtime.h"

#include <cassert>
#include <cstdio>
#include <cstdlib>
#include <utility>

namespace tdr::runtime {

namespace {

using SteadyClock = std::chrono::steady_clock;

double ToSeconds(SteadyClock::duration d) {
  return std::chrono::duration<double>(d).count();
}

/// Accumulates the wall/sim costs of one Run/RunUntil call.
class RunScope {
 public:
  RunScope(double* wall, double* sim_secs, const sim::Simulator* clock)
      : wall_(wall),
        sim_secs_(sim_secs),
        clock_(clock),
        wall_start_(SteadyClock::now()),
        sim_start_(clock->Now()) {}
  ~RunScope() {
    *wall_ += ToSeconds(SteadyClock::now() - wall_start_);
    *sim_secs_ += (clock_->Now() - sim_start_).seconds();
  }

 private:
  double* wall_;
  double* sim_secs_;
  const sim::Simulator* clock_;
  SteadyClock::time_point wall_start_;
  SimTime sim_start_;
};

/// The task whose callback is executing on this thread — the context
/// that routes Schedule* calls from inside a parallel group into the
/// task's deferred buffer. Thread-local so concurrent parallel-class
/// tasks each see their own context.
thread_local Task* tls_current_task = nullptr;

[[noreturn]] void Fail(const char* what) {
  std::fprintf(stderr, "ThreadRuntime: %s\n", what);
  std::abort();
}

}  // namespace

ThreadRuntime::ThreadRuntime(sim::Simulator* clock, std::uint32_t num_nodes,
                             Options /*options*/,
                             obs::MetricsRegistry* metrics)
    : clock_(clock),
      metrics_(metrics),
      pool_(std::make_shared<TaskPool>(kTaskPoolCapacity)),
      barrier_(num_nodes) {
  if (metrics_ != nullptr) {
    epoch_width_profile_ = metrics_->GetProfile("runtime.epoch_width");
  }
  workers_.reserve(num_nodes);
  for (std::uint32_t i = 0; i < num_nodes; ++i) {
    workers_.push_back(std::make_unique<Worker>());
  }
  // Spawn only after every Worker exists: a worker's loop touches just
  // its own slot, but the vector must not grow under it.
  for (std::uint32_t i = 0; i < num_nodes; ++i) {
    workers_[i]->thread = std::thread([this, i] { WorkerLoop(i); });
  }
}

ThreadRuntime::~ThreadRuntime() { Shutdown(); }

sim::EventId ThreadRuntime::Schedule(std::uint32_t node, SimTime when,
                                     sim::Callback fn, ExecClass cls) {
  Task* cur = tls_current_task;
  if (cur != nullptr && cur->cls == ExecClass::kParallel) {
    // Called from inside a parallel group: the shared event core is
    // off limits, so buffer the request on the calling task. The
    // coordinator replays buffers in slot order when it retires the
    // group, which assigns exactly the sequence numbers the serial
    // oracle would have.
    DeferredSchedule d;
    d.node = node;
    d.when = when;
    d.cls = cls;
    d.fn = std::move(fn);
    cur->deferred.push_back(std::move(d));
    return sim::kInvalidEventId;
  }
  // Pooled wrapper: the callback moves into the task at schedule time,
  // so the lambda registered with the clock captures two pointers and
  // stays inside sim::Callback's inline buffer — no allocation.
  Task* t = pool_->Acquire();
  t->owned = std::move(fn);
  t->node = node;
  t->cls = cls;
  return clock_->ScheduleAt(
      when, [this, lease = TaskLease(pool_, t)]() mutable {
        OnWrapperFire(lease.take());
      });
}

sim::EventId ThreadRuntime::RepeatEvery(SimTime interval, sim::Callback fn) {
  assert(!(tls_current_task != nullptr &&
           tls_current_task->cls == ExecClass::kParallel) &&
         "RepeatEvery from a parallel-class task is unsupported");
  // The series' task holds the callback for its whole life and every
  // tick runs it borrowed (`fn` set): the wrapper's lease releases the
  // task when the series is cancelled or the clock is torn down.
  Task* t = pool_->Acquire();
  t->owned = std::move(fn);
  t->fn = &t->owned;
  t->node = kAnyNode;
  return clock_->RepeatEvery(
      interval, [this, lease = TaskLease(pool_, t)]() mutable {
        OnWrapperFire(lease.get());
      });
}

void ThreadRuntime::OnWrapperFire(Task* task) {
  if (!stepping_) {
    Fail("a runtime event fired outside Run/RunUntil: the underlying "
         "Simulator was run directly instead of through the runtime");
  }
  stepping_ = false;
  if (task->cls == ExecClass::kParallel) {
    group_.push_back(task);
    return;
  }
  // Exclusive: the pending group fired earlier (lower seq), so it runs
  // first; then this task runs right here, inside its wrapper, exactly
  // where the bare simulator runs it.
  RetireGroup();
  ++inline_events_;
  RunTaskBody(task);
  if (task->fn == nullptr) pool_->Release(task);  // one-shot
}

void ThreadRuntime::RunTaskBody(Task* task) {
  Task* prev = tls_current_task;
  tls_current_task = task;
  if (task->fn != nullptr) {
    (*task->fn)();
  } else {
    task->owned();
    // Destroy the capture (releasing pooled payload leases etc.) right
    // after the call, at the same serial position the sim oracle does.
    task->owned = nullptr;
  }
  tls_current_task = prev;
}

std::uint32_t ThreadRuntime::LaneOf(const Task* task) const {
  if (stopped_ || task->node >= workers_.size()) return kCoord;
  return task->node;
}

std::uint64_t ThreadRuntime::RunEpochs(SimTime horizon,
                                       std::uint64_t max_events,
                                       bool bounded_horizon) {
  std::uint64_t ran = 0;
  for (;;) {
    SimTime next;
    const bool more = ran < max_events && clock_->PeekNextTime(&next) &&
                      (!bounded_horizon || next <= horizon);
    if (!group_.empty() && (!more || next != clock_->Now())) {
      // The group's timestamp is over (or the run is): retire it. Its
      // deferred schedules may land before `next`, so look again.
      RetireGroup();
      continue;
    }
    if (!more) break;
    stepping_ = true;
    clock_->Step();
    if (stepping_) {
      // The step fired a callback that is not a runtime wrapper: an
      // event scheduled directly on the underlying Simulator.
      Fail("an event scheduled directly on the underlying Simulator "
           "ran; schedule through the runtime");
    }
    ++ran;
  }
  return ran;
}

void ThreadRuntime::RetireGroup() {
  const std::size_t n = group_.size();
  if (n == 0) return;
  ++epochs_;
  if (n > epoch_width_max_) epoch_width_max_ = n;
  epoch_width_profile_.Record(static_cast<double>(n));
  // One chain per node worker; same-node tasks keep FIFO order. Group
  // tasks come fresh from the pool, so run_next is null and weight 1.
  const std::size_t num_workers = workers_.size();
  group_heads_.assign(num_workers, nullptr);
  group_tails_.assign(num_workers, nullptr);
  std::size_t chains = 0;
  for (Task* t : group_) {
    const std::uint32_t lane = LaneOf(t);
    if (lane == kCoord) continue;
    if (group_heads_[lane] == nullptr) {
      group_heads_[lane] = t;
      ++chains;
    } else {
      group_tails_[lane]->run_next = t;
      ++group_heads_[lane]->weight;
    }
    group_tails_[lane] = t;
    ++dispatched_;
  }
  // Arm the gate before anything is in flight: one arrival per chain.
  epoch_gate_.Reset(chains);
  for (Task* head : group_heads_) {
    // Mailboxes close only in Shutdown(), after which every lane is the
    // coordinator's, so no push can fail here.
    if (head != nullptr && !workers_[head->node]->box.Push(head)) {
      Fail("a worker mailbox closed while a group was running");
    }
  }
  // The coordinator's share while workers chew: its untagged tasks.
  for (Task* t : group_) {
    if (LaneOf(t) != kCoord) continue;
    ++inline_events_;
    RunTaskBody(t);
  }
  epoch_gate_.Wait();
  // Replay deferred schedules in slot order — identical sequence
  // assignment to the serial oracle, which ran each callback (and its
  // schedules) at exactly this slot position.
  for (Task* t : group_) {
    for (DeferredSchedule& d : t->deferred) {
      Schedule(d.node, d.when, std::move(d.fn), d.cls);
    }
    pool_->Release(t);
  }
  group_.clear();
}

void ThreadRuntime::WorkerLoop(std::uint32_t index) {
  Worker& w = *workers_[index];
  while (Task* head = w.box.Pop()) {
    for (Task* t = head; t != nullptr; t = t->run_next) {
      if (metrics_ == nullptr) {
        RunTaskBody(t);
      } else {
        // Busy time feeds only PublishMetrics: no registry, no clock.
        SteadyClock::time_point start = SteadyClock::now();
        RunTaskBody(t);
        w.busy += SteadyClock::now() - start;
      }
    }
    // Touch no task after this: the coordinator may recycle them.
    epoch_gate_.Arrive();
  }
  // Mailbox closed and drained: rendezvous so no worker exits while a
  // sibling still holds undrained work.
  barrier_.ArriveAndWait();
}

std::uint64_t ThreadRuntime::RunUntil(SimTime horizon) {
  RunScope scope(&wall_seconds_, &sim_seconds_, clock_);
  std::uint64_t ran = RunEpochs(horizon, ~std::uint64_t{0}, true);
  // Nothing left at or before the horizon; advance Now() to it,
  // exactly as the sim backend does.
  clock_->RunUntil(horizon);
  return ran;
}

std::uint64_t ThreadRuntime::Run(std::uint64_t max_events) {
  RunScope scope(&wall_seconds_, &sim_seconds_, clock_);
  return RunEpochs(SimTime::Zero(), max_events, false);
}

void ThreadRuntime::Shutdown() {
  if (stopped_) return;
  stopped_ = true;
  for (auto& w : workers_) w->box.Close();
  for (auto& w : workers_) {
    if (w->thread.joinable()) w->thread.join();
  }
  PublishMetrics();
}

void ThreadRuntime::PublishMetrics() {
  if (metrics_ == nullptr) return;
  // Wall-clock-derived values go to kProfile metrics only: they are
  // nondeterministic by nature and must never leak into deterministic
  // snapshots (obs::SnapshotOptions excludes kProfile by default).
  // The epoch-shape numbers are kProfile too, so the whole runtime.*
  // family stays out of snapshots and threads-backend snapshots stay
  // bit-identical to the sim oracle's.
  obs::MetricsRegistry::StatsHandle busy =
      metrics_->GetProfile("runtime.worker_busy_seconds");
  obs::MetricsRegistry::StatsHandle depth =
      metrics_->GetProfile("runtime.mailbox_max_depth");
  obs::MetricsRegistry::StatsHandle util =
      metrics_->GetProfile("runtime.worker_utilization");
  for (const auto& w : workers_) {
    busy.Record(ToSeconds(w->busy));
    depth.Record(static_cast<double>(w->box.max_depth()));
    if (wall_seconds_ > 0) {
      util.Record(ToSeconds(w->busy) / wall_seconds_);
    }
  }
  if (sim_seconds_ > 0) {
    metrics_->GetProfile("runtime.wall_sim_ratio")
        .Record(wall_seconds_ / sim_seconds_);
  }
  metrics_->GetProfile("runtime.epoch_count")
      .Record(static_cast<double>(epochs_));
  metrics_->GetProfile("runtime.epoch_width_max")
      .Record(static_cast<double>(epoch_width_max_));
}

}  // namespace tdr::runtime

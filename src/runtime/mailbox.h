#ifndef TDR_RUNTIME_MAILBOX_H_
#define TDR_RUNTIME_MAILBOX_H_

#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <mutex>
#include <vector>

#include "sim/callback.h"
#include "util/sim_time.h"

namespace tdr::runtime {

/// How a scheduled event may execute relative to its same-timestamp
/// neighbours. kExclusive events may touch shared cluster state (the
/// executor, the message pool, metric cells, the event core), so the
/// thread backend runs them one at a time on the coordinator, in exact
/// (time, seq) order. kParallel is a promise made at the call site: the
/// callback touches only its node's private state, and any events it
/// schedules are deferred and replayed in slot order — only then may
/// same-timestamp events on distinct nodes genuinely overlap.
enum class ExecClass : std::uint8_t {
  kExclusive = 0,
  kParallel = 1,
};

/// A scheduling request a parallel-class task issued while its group
/// was in flight. Replayed by the coordinator in slot order once the
/// group's gate opens, so sequence numbers come out exactly as the
/// serial oracle would have assigned them.
struct DeferredSchedule {
  std::uint32_t node = 0;
  SimTime when;  // absolute virtual time
  ExecClass cls = ExecClass::kExclusive;
  sim::Callback fn;
};

/// One scheduled event's pooled wrapper. Exclusive tasks run on the
/// coordinator; parallel-class tasks are handed to worker threads.
///
/// Two ownership modes coexist:
///  * `fn` set — the callback is BORROWED: it lives in the scheduling
///    wrapper (repeat series), or on a test's stack, and must stay
///    valid until the task has executed.
///  * `fn` null — the callback is `owned`: the runtime moves the
///    scheduled callback into the pooled task at schedule time, so
///    firing never chases a pointer into the event slab (whose slots
///    are recycled the moment the wrapper pops).
///
/// `run_next` links a parallel group's same-node tasks into one
/// worker chain. The coordinator writes it before the push; mailbox
/// mutexes provide the happens-before edges that publish it (and the
/// task) to the worker.
struct Task {
  Task() = default;
  /// Test convenience: a borrowed-callback task.
  explicit Task(sim::Callback* f) : fn(f) {}

  sim::Callback* fn = nullptr;  // borrowed callback (see above)
  Task* next = nullptr;         // intrusive mailbox link
  sim::Callback owned;          // owned callback (one-shot events)
  /// Queue-depth contribution of a pushed chain head (the chain's
  /// length); a lone task weighs 1.
  std::uint32_t weight = 1;
  std::uint32_t node = 0xffffffffu;  // node affinity tag (kAnyNode)
  /// kParallel: Schedule* calls from the callback are deferred into
  /// `deferred` instead of touching the shared event core.
  ExecClass cls = ExecClass::kExclusive;
  Task* run_next = nullptr;  // next task in this worker chain
  std::vector<DeferredSchedule> deferred;  // parallel tasks only
};

/// Counted completion barrier for a parallel group: the coordinator
/// Reset(n)s it to the number of chains the group hands out, workers
/// Arrive() as each chain finishes, and the coordinator Wait()s for
/// zero — one round-trip per group, not one per task. The mutex
/// hand-off is also the happens-before edge that publishes each
/// worker's node-private writes (its store, its WAL) back to the
/// coordinator without atomics.
class EpochGate {
 public:
  void Reset(std::size_t count) {
    std::lock_guard<std::mutex> lock(mu_);
    remaining_ = count;
  }

  void Arrive(std::size_t n = 1) {
    bool done = false;
    {
      std::lock_guard<std::mutex> lock(mu_);
      remaining_ -= n;
      done = remaining_ == 0;
    }
    if (done) cv_.notify_all();
  }

  void Wait() {
    std::unique_lock<std::mutex> lock(mu_);
    cv_.wait(lock, [this] { return remaining_ == 0; });
  }

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  std::size_t remaining_ = 0;
};

/// All-parties rendezvous used as the shared stop/drain barrier: every
/// worker drains its mailbox, arrives, and no worker exits until all
/// have drained. Reusable across generations.
class StopBarrier {
 public:
  explicit StopBarrier(std::size_t parties) : parties_(parties) {}

  StopBarrier(const StopBarrier&) = delete;
  StopBarrier& operator=(const StopBarrier&) = delete;

  void ArriveAndWait();

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  std::size_t parties_;
  std::size_t arrived_ = 0;
  std::uint64_t generation_ = 0;
};

/// MPSC mailbox: any thread may Push, one worker Pop()s. Mutex+condvar
/// by design — the coordinator retires every group behind a gate, so a
/// mailbox never holds more than one chain (its depth is bounded by
/// the widest group), and a lock-free queue would buy nothing (the
/// stress suite still hammers the multi-producer path).
///
/// Close() wakes the consumer; Pop() then drains whatever is queued
/// before returning nullptr, so no accepted task is ever lost — the
/// drain half of the stop/drain barrier.
class Mailbox {
 public:
  Mailbox() = default;

  Mailbox(const Mailbox&) = delete;
  Mailbox& operator=(const Mailbox&) = delete;

  /// Enqueues `task` — a lone task, or the head of a `run_next`-linked
  /// chain whose `weight` holds its length — as one queue node. False
  /// (nothing queued) if the mailbox is closed.
  bool Push(Task* task);

  /// Blocks until a task is available or the mailbox is closed AND
  /// drained; nullptr means "closed, nothing left".
  Task* Pop();

  /// Rejects future pushes and wakes the consumer.
  void Close();

  bool closed() const {
    std::lock_guard<std::mutex> lock(mu_);
    return closed_;
  }
  std::size_t depth() const {
    std::lock_guard<std::mutex> lock(mu_);
    return depth_;
  }
  /// High-water mark of queued weight (the mailbox-depth metric).
  std::size_t max_depth() const {
    std::lock_guard<std::mutex> lock(mu_);
    return max_depth_;
  }
  std::uint64_t pushed() const {
    std::lock_guard<std::mutex> lock(mu_);
    return pushed_;
  }

 private:
  mutable std::mutex mu_;
  std::condition_variable cv_;
  Task* head_ = nullptr;
  Task* tail_ = nullptr;
  std::size_t depth_ = 0;
  std::size_t max_depth_ = 0;
  std::uint64_t pushed_ = 0;
  bool closed_ = false;
};

}  // namespace tdr::runtime

#endif  // TDR_RUNTIME_MAILBOX_H_

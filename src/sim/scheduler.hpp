// The discrete-event scheduler: a time-ordered run queue of suspended
// coroutines and plain calls (`CrossCall`s). Single-threaded and fully
// deterministic — ties in time are broken by insertion order, so a given
// seed always replays the same schedule.
#pragma once

#include <algorithm>
#include <coroutine>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <new>
#include <type_traits>
#include <vector>

#include "core/error.hpp"
#include "core/units.hpp"
#include "sim/arena.hpp"
#include "sim/event_queue.hpp"
#include "sim/task.hpp"

namespace rsd::sim {

/// Type-erased callable the scheduler runs as a plain event (`call_at`),
/// e.g. a message between partitions; the scheduler clock reads exactly
/// the event time during the call. Storage is inline and the payload must
/// be trivially copyable, so queueing a call never touches the heap.
class CrossCall {
 public:
  static constexpr std::size_t kInlineBytes = 64;

  CrossCall() = default;

  template <typename F>
    requires(!std::is_same_v<std::decay_t<F>, CrossCall> &&
             std::is_trivially_copyable_v<std::decay_t<F>> &&
             sizeof(std::decay_t<F>) <= kInlineBytes)
  CrossCall(F&& fn) {  // NOLINT(google-explicit-constructor) — message literal
    using Fn = std::decay_t<F>;
    ::new (static_cast<void*>(buf_)) Fn(std::forward<F>(fn));
    invoke_ = [](void* p) { (*std::launder(reinterpret_cast<Fn*>(p)))(); };
  }

  void operator()() {
    RSD_ASSERT(invoke_ != nullptr);
    invoke_(buf_);
  }

  [[nodiscard]] explicit operator bool() const { return invoke_ != nullptr; }

 private:
  alignas(std::max_align_t) unsigned char buf_[kInlineBytes]{};
  void (*invoke_)(void*) = nullptr;
};

class Scheduler {
 public:
  Scheduler() = default;
  Scheduler(const Scheduler&) = delete;
  Scheduler& operator=(const Scheduler&) = delete;

  /// Calls still queued (a run cut short) return their nodes to the bound
  /// arena; queued coroutine frames belong to their tasks.
  ~Scheduler() {
    for (; !queue_.empty(); queue_.pop()) {
      if (const std::uintptr_t e = queue_.top().payload; (e & kCallTag) != 0) {
        FrameArena::local().deallocate(call_of(e));
      }
    }
  }

  [[nodiscard]] SimTime now() const { return now_; }

  /// Launch a root process at the current simulated time. The scheduler
  /// owns the task until `run()` finishes.
  void spawn(Task<> task) {
    RSD_ASSERT(task.valid());
    task.handle_.promise().sched = this;
    schedule_at(task.handle_, now_);
    roots_.push_back(std::move(task));
    if (roots_.size() >= sweep_threshold_) sweep_finished_roots();
  }

  /// Run `call` at absolute time `t` (>= now) as a plain event: one copy
  /// into a node from the bound FrameArena, no coroutine frame and no root
  /// task. The partitioned engine delivers messages this way. An exception
  /// the call throws is kept and rethrown by run(), as a failed root's is.
  void call_at(const CrossCall& call, SimTime t) {
    RSD_ASSERT(t >= now_);
    auto* node = ::new (FrameArena::local().allocate(sizeof(CrossCall))) CrossCall(call);
    queue_.push(t, seq_++, reinterpret_cast<std::uintptr_t>(node) | kCallTag);
  }

  /// Enqueue a coroutine to resume after `delay` of simulated time.
  void schedule(std::coroutine_handle<> h, SimDuration delay) {
    schedule_at(h, now_ + delay);
  }

  /// Enqueue a coroutine to resume at absolute time `t` (>= now).
  void schedule_at(std::coroutine_handle<> h, SimTime t) {
    RSD_ASSERT(t >= now_);
    queue_.push(t, seq_++, reinterpret_cast<std::uintptr_t>(h.address()));
  }

  /// Run one event: advance the clock and resume one coroutine or invoke
  /// (then free) one call. Returns false when the event queue is empty.
  bool step() {
    if (queue_.empty()) return false;
    const auto& item = queue_.top();
    now_ = item.at;
    const std::uintptr_t e = item.payload;
    queue_.pop();
    ++executed_events_;
    if ((e & kCallTag) == 0) {
      std::coroutine_handle<>::from_address(reinterpret_cast<void*>(e)).resume();
      return true;
    }
    CrossCall* call = call_of(e);
    try {
      (*call)();
    } catch (...) {
      pending_exceptions_.push_back(std::current_exception());
    }
    FrameArena::local().deallocate(call);
    return true;
  }

  /// Run until no events remain, then rethrow the first failure of a root
  /// task or call.
  void run() {
    while (step()) {
    }
    finish_roots();
  }

  /// Run until the clock would pass `deadline`; events at exactly `deadline`
  /// are executed. Root and call failures are rethrown if all events
  /// drained.
  void run_until(SimTime deadline) {
    while (!queue_.empty() && queue_.top().at <= deadline) {
      step();
    }
    if (queue_.empty()) {
      finish_roots();
    } else {
      now_ = deadline;
    }
  }

  /// Run every event with timestamp strictly below `horizon` (the
  /// conservative-lookahead window of the partitioned engine). Unlike
  /// run_until, the clock is left at the last executed event — events at
  /// exactly `horizon` stay pending, and no completion check runs (the
  /// engine drains with run() after the last epoch). Returns the number
  /// of events executed.
  std::uint64_t run_before(SimTime horizon) {
    std::uint64_t n = 0;
    while (!queue_.empty() && queue_.top().at < horizon) {
      step();
      ++n;
    }
    return n;
  }

  /// Timestamp of the earliest pending event, or SimTime::max() when the
  /// queue is empty (the engine's "no work" sentinel).
  [[nodiscard]] SimTime next_event_time() const {
    return queue_.empty() ? SimTime::max() : queue_.top().at;
  }

  /// Number of spawned root processes that have not yet completed.
  /// Non-zero after run() indicates a deadlock in the simulated program.
  [[nodiscard]] std::size_t unfinished_count() const {
    std::size_t n = 0;
    for (const auto& t : roots_) {
      if (t.valid() && !t.done()) ++n;
    }
    return n;
  }

  /// Events run by this scheduler so far, coroutine resumptions and calls
  /// alike (perf_sim_core's numerator).
  [[nodiscard]] std::uint64_t executed_events() const { return executed_events_; }

  /// Sweep diagnostics for the root-compaction regression tests: number of
  /// sweeps run, total root slots scanned across them, and the current
  /// backing capacity of the root list.
  [[nodiscard]] std::uint64_t sweep_count() const { return sweep_count_; }
  [[nodiscard]] std::uint64_t sweep_scanned() const { return sweep_scanned_; }
  [[nodiscard]] std::size_t root_capacity() const { return roots_.capacity(); }

 private:
  void finish_roots() {
    if (!pending_exceptions_.empty()) {
      std::rethrow_exception(pending_exceptions_.front());
    }
    for (auto& t : roots_) t.rethrow_if_failed();
    // Keep finished frames until destruction is safe: all are done here
    // (or deadlocked, in which case the caller inspects unfinished_count()).
  }

  /// Reclaim completed root frames so long simulations (hundreds of
  /// thousands of spawned ops) stay bounded in memory. Compacts in place —
  /// no fresh vector — preserving the relative order of live tasks; each
  /// finished frame is destroyed by the move-assignment that overwrites
  /// its slot or by the final erase. Stored exceptions are preserved for
  /// finish_roots(). The threshold doubles with the live population so a
  /// long-lived fleet of N tasks costs O(total spawns) sweep work overall,
  /// not O(spawns * N).
  void sweep_finished_roots() {
    ++sweep_count_;
    sweep_scanned_ += roots_.size();
    auto out = roots_.begin();
    for (auto& t : roots_) {
      if (!t.done()) {
        if (&t != &*out) *out = std::move(t);
        ++out;
        continue;
      }
      try {
        t.rethrow_if_failed();
      } catch (...) {
        pending_exceptions_.push_back(std::current_exception());
      }
    }
    roots_.erase(out, roots_.end());
    sweep_threshold_ = std::max(kRootSweepThreshold, roots_.size() * 2);
  }

  static constexpr std::size_t kRootSweepThreshold = 4096;

  /// A queue entry is a coroutine frame's address, or a call node's with
  /// its low bit set: frames hold pointers and arena nodes are 16-byte
  /// aligned, so neither address is odd.
  static constexpr std::uintptr_t kCallTag = 1;

  [[nodiscard]] static CrossCall* call_of(std::uintptr_t e) {
    return reinterpret_cast<CrossCall*>(e & ~kCallTag);
  }

  TimedQueue<std::uintptr_t> queue_;
  std::vector<Task<>> roots_;
  std::vector<std::exception_ptr> pending_exceptions_;
  SimTime now_ = SimTime::zero();
  std::uint64_t seq_ = 0;
  std::uint64_t executed_events_ = 0;
  std::size_t sweep_threshold_ = kRootSweepThreshold;
  std::uint64_t sweep_count_ = 0;
  std::uint64_t sweep_scanned_ = 0;
};

/// Awaitable that suspends the current process for `d` of simulated time.
/// `co_await delay(10_us);`
struct Delay {
  SimDuration d;

  [[nodiscard]] bool await_ready() const noexcept { return false; }
  template <typename P>
  void await_suspend(std::coroutine_handle<P> h) const {
    h.promise().sched->schedule(h, d.ns() > 0 ? d : SimDuration::zero());
  }
  void await_resume() const noexcept {}
};

[[nodiscard]] inline Delay delay(SimDuration d) { return Delay{d}; }

/// Awaitable that yields the scheduler without advancing time (runs after
/// other events already queued for the current instant).
[[nodiscard]] inline Delay yield() { return Delay{SimDuration::zero()}; }

/// Awaitable that produces the current scheduler pointer, letting library
/// code reach the clock without threading a Scheduler& everywhere.
struct CurrentScheduler {
  Scheduler* sched = nullptr;

  [[nodiscard]] bool await_ready() const noexcept { return false; }
  template <typename P>
  bool await_suspend(std::coroutine_handle<P> h) noexcept {
    sched = h.promise().sched;
    return false;  // resume immediately, no reschedule
  }
  [[nodiscard]] Scheduler* await_resume() const noexcept { return sched; }
};

[[nodiscard]] inline CurrentScheduler current_scheduler() { return {}; }

}  // namespace rsd::sim

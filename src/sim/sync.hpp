// Synchronisation primitives for simulated processes: one-shot events,
// FIFO counting semaphores, wait groups, and unbounded channels.
//
// All primitives resume waiters *through the scheduler* (at the current
// simulated instant) rather than inline, which keeps resumption order
// deterministic and prevents unbounded recursion through chains of wakeups.
//
// Permits and items are handed to waiters directly (transfer semantics):
// a release() or put() that finds a waiter assigns the permit/item to that
// waiter before scheduling it, so a process that arrives in between cannot
// steal it. This guarantees strict FIFO service order — the property that
// makes net::Network's FIFO link queues exact.
#pragma once

#include <coroutine>
#include <cstdint>
#include <deque>
#include <memory>
#include <optional>
#include <utility>

#include "sim/task.hpp"

#include "core/error.hpp"
#include "sim/arena.hpp"
#include "sim/scheduler.hpp"

namespace rsd::sim {

/// One-shot broadcast event. After trigger(), all current and future waiters
/// proceed immediately.
///
/// Waiters are kept on an intrusive FIFO list whose nodes live inside the
/// awaiting coroutines' (arena-recycled) frames, so an Event — constructed
/// per simulated op for completion signalling — performs no heap
/// allocation of its own.
class Event {
 public:
  explicit Event(Scheduler& sched) : sched_(sched) {}
  Event(const Event&) = delete;
  Event& operator=(const Event&) = delete;

  [[nodiscard]] bool triggered() const { return triggered_; }

  void trigger() {
    if (triggered_) return;
    triggered_ = true;
    // Wake in arrival (FIFO) order. Nodes stay valid while we walk: the
    // scheduler only enqueues the handles; resumption happens later.
    for (WaitNode* n = head_; n != nullptr;) {
      WaitNode* next = n->next;
      sched_.schedule(n->handle, SimDuration::zero());
      n = next;
    }
    head_ = tail_ = nullptr;
  }

  [[nodiscard]] auto wait() {
    struct Awaiter {
      Event& ev;
      WaitNode node;
      [[nodiscard]] bool await_ready() const noexcept { return ev.triggered_; }
      void await_suspend(std::coroutine_handle<> h) {
        node.handle = h;
        node.next = nullptr;
        if (ev.tail_ != nullptr) {
          ev.tail_->next = &node;
        } else {
          ev.head_ = &node;
        }
        ev.tail_ = &node;
      }
      void await_resume() const noexcept {}
    };
    return Awaiter{*this, {}};
  }

 private:
  struct WaitNode {
    std::coroutine_handle<> handle;
    WaitNode* next = nullptr;
  };

  Scheduler& sched_;
  bool triggered_ = false;
  WaitNode* head_ = nullptr;
  WaitNode* tail_ = nullptr;
};

/// Allocate a shared completion event from the thread-local frame arena
/// (zero general-heap cost per op in steady state). Use wherever a fresh
/// `std::shared_ptr<Event>` per op/generation is needed.
[[nodiscard]] inline std::shared_ptr<Event> make_event(Scheduler& sched) {
  return std::allocate_shared<Event>(ArenaAllocator<Event>{}, sched);
}

/// FIFO counting semaphore with permit-transfer wakeups. Like Event, the
/// waiter queue is intrusive: each AcquireAwaiter already lives in its
/// coroutine's frame, so waiting allocates nothing.
class Semaphore {
 public:
  Semaphore(Scheduler& sched, std::int64_t initial)
      : sched_(sched), count_(initial) {
    RSD_ASSERT(initial >= 0);
  }
  Semaphore(const Semaphore&) = delete;
  Semaphore& operator=(const Semaphore&) = delete;

  [[nodiscard]] std::int64_t available() const { return count_; }
  [[nodiscard]] std::size_t waiting() const { return waiting_; }

  struct [[nodiscard]] AcquireAwaiter {
    Semaphore& sem;
    std::coroutine_handle<> handle;
    AcquireAwaiter* next = nullptr;

    [[nodiscard]] bool await_ready() const noexcept { return false; }
    bool await_suspend(std::coroutine_handle<> h) {
      if (sem.head_ == nullptr && sem.count_ > 0) {
        --sem.count_;
        return false;  // permit taken, continue without suspending
      }
      handle = h;
      next = nullptr;
      if (sem.tail_ != nullptr) {
        sem.tail_->next = this;
      } else {
        sem.head_ = this;
      }
      sem.tail_ = this;
      ++sem.waiting_;
      return true;
    }
    void await_resume() const noexcept {}
  };

  [[nodiscard]] AcquireAwaiter acquire() { return AcquireAwaiter{*this, {}}; }

  void release() {
    if (head_ != nullptr) {
      AcquireAwaiter* w = head_;
      head_ = w->next;
      if (head_ == nullptr) tail_ = nullptr;
      --waiting_;
      sched_.schedule(w->handle, SimDuration::zero());  // permit transferred
    } else {
      ++count_;
    }
  }

 private:
  Scheduler& sched_;
  std::int64_t count_;
  AcquireAwaiter* head_ = nullptr;
  AcquireAwaiter* tail_ = nullptr;
  std::size_t waiting_ = 0;
};

/// Counts outstanding work items; `wait()` resumes when the count reaches 0.
/// One-shot: once the count has dropped to zero the group is finished.
class WaitGroup {
 public:
  explicit WaitGroup(Scheduler& sched) : done_event_(sched) {}

  void add(std::int64_t n = 1) {
    RSD_ASSERT(!done_event_.triggered());
    count_ += n;
  }

  void done() {
    RSD_ASSERT(count_ > 0);
    if (--count_ == 0) done_event_.trigger();
  }

  [[nodiscard]] auto wait() { return done_event_.wait(); }
  [[nodiscard]] std::int64_t count() const { return count_; }

 private:
  std::int64_t count_ = 0;
  Event done_event_;
};

/// Reusable MPI-style barrier: all `parties` must arrive before any leaves;
/// immediately reusable for the next generation (bulk-synchronous loops).
class Barrier {
 public:
  Barrier(Scheduler& sched, int parties) : sched_(sched), parties_(parties) {
    RSD_ASSERT(parties >= 1);
  }
  Barrier(const Barrier&) = delete;
  Barrier& operator=(const Barrier&) = delete;

  Task<> arrive_and_wait() {
    const std::int64_t my_generation = generation_;
    if (++arrived_ == parties_) {
      arrived_ = 0;
      ++generation_;
      gate_->trigger();
      auto fresh = make_event(sched_);
      gate_.swap(fresh);
      co_return;
    }
    // Hold a reference to this generation's gate; the last arriver swaps
    // in a fresh one before triggering ours.
    auto gate = gate_;
    while (generation_ == my_generation) {
      co_await gate->wait();
    }
  }

  [[nodiscard]] int parties() const { return parties_; }
  [[nodiscard]] std::int64_t generation() const { return generation_; }

 private:
  Scheduler& sched_;
  int parties_;
  int arrived_ = 0;
  std::int64_t generation_ = 0;
  std::shared_ptr<Event> gate_ = make_event(sched_);
};

/// Unbounded FIFO channel. put() never blocks; get() suspends while empty.
/// Items are handed to waiting getters in FIFO order.
template <typename T>
class Channel {
 public:
  explicit Channel(Scheduler& sched) : sched_(sched) {}
  Channel(const Channel&) = delete;
  Channel& operator=(const Channel&) = delete;

  struct [[nodiscard]] GetAwaiter {
    Channel& ch;
    std::coroutine_handle<> handle;
    std::optional<T> slot;

    [[nodiscard]] bool await_ready() const noexcept { return false; }
    bool await_suspend(std::coroutine_handle<> h) {
      if (ch.waiters_.empty() && !ch.items_.empty()) {
        slot = std::move(ch.items_.front());
        ch.items_.pop_front();
        return false;
      }
      handle = h;
      ch.waiters_.push_back(this);
      return true;
    }
    [[nodiscard]] T await_resume() {
      RSD_ASSERT(slot.has_value());
      return std::move(*slot);
    }
  };

  void put(T value) {
    if (!waiters_.empty()) {
      GetAwaiter* w = waiters_.front();
      waiters_.pop_front();
      w->slot = std::move(value);
      sched_.schedule(w->handle, SimDuration::zero());
    } else {
      items_.push_back(std::move(value));
    }
  }

  [[nodiscard]] GetAwaiter get() { return GetAwaiter{*this, {}, std::nullopt}; }

  [[nodiscard]] std::size_t size() const { return items_.size(); }
  [[nodiscard]] bool empty() const { return items_.empty(); }

 private:
  Scheduler& sched_;
  std::deque<T> items_;
  std::deque<GetAwaiter*> waiters_;
};

}  // namespace rsd::sim

// One shard of a partitioned simulation (`sim::Partition`) and the
// cross-partition message it exchanges (`sim::RemoteMsg`, which carries a
// `sim::CrossCall` — the plain-call event of scheduler.hpp).
//
// A Partition is a complete single-threaded simulation — its own
// Scheduler (event queue, clock, sequence counter) plus its own
// FrameArena — that owns one slice of the simulated machine (one device
// or chassis; host lanes are pinned to their context's partition).
// Partitions never share mutable state: the ONLY way simulated code in
// partition A affects partition B is `send()`, which enqueues a
// timestamped message the engine (conservative.hpp) delivers into B's
// event queue under the conservative-lookahead protocol. A delivered
// message, a same-partition send and a `post()` all run as plain calls
// (`Scheduler::call_at`): no coroutine frame, no root task.
//
// Determinism contract: a message is keyed `(at, src, seq)` where `seq`
// is the source partition's send counter. Source-side processing is
// sequential, so the key is a pure function of the simulation — never of
// thread interleaving — and the engine's sorted merge gives every
// destination queue one total, thread-count-independent order.
#pragma once

#include <cstdint>
#include <vector>

#include "core/units.hpp"
#include "sim/arena.hpp"
#include "sim/scheduler.hpp"

namespace rsd::sim {

using PartitionId = std::uint32_t;

/// A message in flight between partitions. `seq` restarts per source;
/// the engine merges inbound messages by `(at, src, seq)`.
struct RemoteMsg {
  SimTime at;
  PartitionId dst = 0;
  std::uint64_t seq = 0;
  CrossCall call;
};

class ParallelEngine;

class Partition {
 public:
  Partition(const Partition&) = delete;
  Partition& operator=(const Partition&) = delete;

  [[nodiscard]] PartitionId id() const { return id_; }
  [[nodiscard]] Scheduler& scheduler() { return sched_; }
  [[nodiscard]] const Scheduler& scheduler() const { return sched_; }
  [[nodiscard]] FrameArena& arena() { return arena_; }
  [[nodiscard]] ParallelEngine& engine() { return engine_; }

  /// Post `call` to run inside partition `dst` after `delay` of simulated
  /// time. A remote send must travel an edge of the engine's lookahead
  /// graph, and `delay` must be at least that edge's lookahead — the link
  /// latency that makes conservative parallel execution sound.
  /// Same-partition sends are allowed with any delay (they are ordinary
  /// local events). Must be called from code executing inside this
  /// partition (its own epoch slice).
  void send(PartitionId dst, SimDuration delay, CrossCall call);

  /// Setup entry point: create and launch a root task inside this
  /// partition. `factory()` is invoked — and the coroutine frame therefore
  /// allocated — under this partition's ArenaScope, which the arena's
  /// same-partition free rule requires when spawning from outside an epoch
  /// slice (tests, topology builders). Inside a slice the scope is already
  /// bound and `scheduler().spawn()` may be used directly.
  template <typename Factory>
  void spawn(Factory&& factory) {
    ArenaScope scope{arena_};
    sched_.spawn(std::forward<Factory>(factory)());
  }

  /// Setup entry point for plain callables: queue `call` as a plain event
  /// (`Scheduler::call_at`) inside this partition after `delay`. Its node
  /// comes from this partition's arena, hence the same scope as `spawn`.
  void post(SimDuration delay, const CrossCall& call) {
    ArenaScope scope{arena_};
    sched_.call_at(call, sched_.now() + delay);
  }

 private:
  friend class ParallelEngine;

  Partition(ParallelEngine& engine, PartitionId id) : engine_(engine), id_(id) {}

  ParallelEngine& engine_;
  PartitionId id_;
  // arena_ precedes sched_: scheduler teardown releases coroutine frames
  // and queued call nodes into the arena, so the arena must outlive it
  // (reverse destruction).
  FrameArena arena_;
  Scheduler sched_;
  /// Double-buffered outboxes: the engine fills one per epoch and routes
  /// the other to destination inboxes between epochs, then flips parity.
  std::vector<RemoteMsg> outbox_[2];
  std::vector<RemoteMsg>* out_cur_ = nullptr;  ///< Set by the engine per epoch.
  std::uint64_t send_seq_ = 0;
};

}  // namespace rsd::sim

// Regression tests for the allocation-free simulator core:
//
//  * Root-sweep compaction: 200k short-lived root tasks must not grow the
//    scheduler's root list beyond a bounded capacity, and the adaptive
//    threshold must keep total sweep work O(total spawns), not
//    O(spawns * live).
//  * Frame arena: steady-state coroutine and plain-call churn performs
//    ZERO general-heap allocations per op (this binary links the counting
//    operator new/delete from rsd_alloc_counter).
//  * Metric lookups: finding an existing obs::Registry metric by name
//    allocates nothing.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>

#include "core/alloc_counter.hpp"
#include "obs/metrics.hpp"
#include "sim/arena.hpp"
#include "sim/scheduler.hpp"
#include "sim/sync.hpp"
#include "sim/task.hpp"

namespace {

using namespace rsd;
using namespace rsd::literals;

sim::Task<> short_lived(int hops) {
  for (int i = 0; i < hops; ++i) co_await sim::delay(1_us);
}

/// A generator that spawns `total` short-lived roots, a few at a time, so
/// the live population stays small while the spawn count grows huge —
/// the shape of a proxy sweep's op stream.
sim::Task<> generator(sim::Scheduler& sched, int total) {
  for (int i = 0; i < total; ++i) {
    sched.spawn(short_lived(2));
    co_await sim::delay(1_us);
  }
}

sim::Task<> wait_on(std::shared_ptr<sim::Event> ev) { co_await ev->wait(); }

sim::Task<> churn_then_release(sim::Scheduler& sched, int total,
                               std::shared_ptr<sim::Event> ev) {
  for (int i = 0; i < total; ++i) {
    sched.spawn(short_lived(2));
    co_await sim::delay(1_us);
  }
  ev->trigger();
}

TEST(RootSweep, TwoHundredThousandShortLivedRootsStayBounded) {
  constexpr int kRoots = 200'000;
  sim::Scheduler sched;
  sched.spawn(generator(sched, kRoots));
  sched.run();

  EXPECT_EQ(sched.unfinished_count(), 0u);
  // The live population never exceeds a few tasks, so compaction must keep
  // the backing storage at the sweep threshold's scale, nowhere near 200k.
  EXPECT_LE(sched.root_capacity(), 16'384u);
  EXPECT_GE(sched.sweep_count(), 10u);
  // O(n) total sweep work: with a threshold of 4096 and a tiny live set,
  // scanning is ~(spawns / 4096) sweeps x ~4096 slots each. Allow 4x slack.
  EXPECT_LE(sched.sweep_scanned(), static_cast<std::uint64_t>(kRoots) * 4);
}

TEST(RootSweep, AdaptiveThresholdWithLargeLivePopulation) {
  // A long-lived fleet larger than the base threshold must not be rescanned
  // on every subsequent spawn: the threshold doubles with the live count.
  constexpr int kLive = 6'000;
  constexpr int kChurn = 50'000;
  sim::Scheduler sched;
  // Long-lived tasks: parked on an event until the whole churn has passed.
  auto done = sim::make_event(sched);
  for (int i = 0; i < kLive; ++i) sched.spawn(wait_on(done));
  sched.spawn(churn_then_release(sched, kChurn, done));
  sched.run();

  EXPECT_EQ(sched.unfinished_count(), 0u);
  // Without the adaptive threshold this would be ~kChurn sweeps of ~kLive
  // slots each (300M scanned). With it, each sweep doubles the distance to
  // the next, so total work stays within a small multiple of total spawns.
  EXPECT_LE(sched.sweep_scanned(), static_cast<std::uint64_t>(kLive + kChurn) * 8);
}

/// Heap allocations made by 10,000 ops of `op` run back to back, after
/// 10,000 more in the same root task have warmed the scheduler up.
template <typename Op>
std::int64_t steady_state_allocations(Op op) {
  sim::Scheduler sched;
  std::int64_t during = -1;
  sched.spawn([](sim::Scheduler& s, Op& body, std::int64_t& out) -> sim::Task<> {
    // Warm-up: populate free lists, grow the event queue and root vector
    // past their high-water marks, and get past the first root sweep.
    for (int i = 0; i < 10'000; ++i) co_await body(s);
    const std::int64_t before = alloc::allocation_count();
    for (int i = 0; i < 10'000; ++i) co_await body(s);
    out = alloc::allocation_count() - before;
  }(sched, op, during));
  sched.run();
  EXPECT_EQ(sched.unfinished_count(), 0u);
  return during;
}

/// Steady-state op churn allocates nothing from the general heap: frames
/// and call nodes come from the FrameArena free lists, events from
/// allocate_shared over the arena, and the scheduler queue/roots reuse
/// their vectors. An op waits for a child root task, or for a plain call
/// (`call_at`), to trigger its completion event.
TEST(FrameArena, SteadyStateChurnIsAllocationFree) {
  auto child_op = [](sim::Scheduler& s) -> sim::Task<> {
    auto done = sim::make_event(s);
    s.spawn([](std::shared_ptr<sim::Event> ev) -> sim::Task<> {
      co_await sim::delay(1_us);
      ev->trigger();
    }(done));
    co_await done->wait();
  };
  auto call_op = [](sim::Scheduler& s) -> sim::Task<> {
    auto done = sim::make_event(s);
    sim::Event* ev = done.get();
    s.call_at([ev] { ev->trigger(); }, s.now() + 1_us);
    co_await done->wait();
  };

  EXPECT_EQ(steady_state_allocations(child_op), 0)
      << "steady-state child tasks touched the general heap";
  EXPECT_EQ(steady_state_allocations(call_op), 0)
      << "steady-state plain calls touched the general heap";
}

TEST(FrameArena, RecyclesFramesAndReportsStats) {
  auto& arena = sim::FrameArena::local();
  const auto before = arena.stats();

  void* a = arena.allocate(100);
  arena.deallocate(a);
  void* b = arena.allocate(100);  // same bucket: must reuse a's block
  EXPECT_EQ(a, b);
  arena.deallocate(b);

  const auto after = arena.stats();
  EXPECT_GE(after.reused, before.reused + 1);

  // Oversize blocks pass through to the heap and still round-trip.
  void* big = arena.allocate(1 << 20);
  ASSERT_NE(big, nullptr);
  arena.deallocate(big);
  EXPECT_EQ(arena.stats().oversize, before.oversize + 1);
}

TEST(AllocCounter, CountsHeapTraffic) {
  const std::int64_t before = alloc::allocation_count();
  auto* p = new std::uint64_t{42};
  EXPECT_GT(alloc::allocation_count(), before);
  const std::int64_t frees = alloc::deallocation_count();
  delete p;
  EXPECT_GT(alloc::deallocation_count(), frees);
}

/// Names longer than the 15-character small-string buffer: a lookup that
/// built a `std::string` key would allocate each time. `~Device` flushes
/// six such counters per device.
TEST(Registry, LookupOfAnExistingMetricAllocatesNothing) {
  obs::Registry registry;
  (void)registry.counter("test.counter_long_name");
  (void)registry.gauge("test.gauge_long_name");
  (void)registry.histogram("test.histogram_long_name");

  const std::int64_t before = alloc::allocation_count();
  for (int i = 0; i < 100; ++i) {
    registry.counter("test.counter_long_name").add(1);
    registry.gauge("test.gauge_long_name").set(1.0);
    registry.histogram("test.histogram_long_name").observe(1);
  }
  EXPECT_EQ(alloc::allocation_count() - before, 0);
}

}  // namespace

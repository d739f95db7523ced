#include "sim/scheduler.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

#include "sim/arena.hpp"
#include "sim/task.hpp"

namespace rsd::sim {
namespace {

using namespace rsd::literals;

TEST(Scheduler, StartsAtTimeZero) {
  Scheduler sched;
  EXPECT_EQ(sched.now(), SimTime::zero());
}

TEST(Scheduler, DelayAdvancesClock) {
  Scheduler sched;
  SimTime observed{-1};
  sched.spawn([](Scheduler& s, SimTime& out) -> Task<> {
    co_await delay(10_us);
    out = s.now();
  }(sched, observed));
  sched.run();
  EXPECT_EQ(observed, SimTime::zero() + 10_us);
  EXPECT_EQ(sched.unfinished_count(), 0u);
}

TEST(Scheduler, SequentialDelaysAccumulate) {
  Scheduler sched;
  std::vector<std::int64_t> times;
  sched.spawn([](Scheduler& s, std::vector<std::int64_t>& t) -> Task<> {
    co_await delay(1_us);
    t.push_back(s.now().ns());
    co_await delay(2_us);
    t.push_back(s.now().ns());
    co_await delay(3_us);
    t.push_back(s.now().ns());
  }(sched, times));
  sched.run();
  EXPECT_EQ(times, (std::vector<std::int64_t>{1000, 3000, 6000}));
}

TEST(Scheduler, MultipleProcessesInterleaveByTime) {
  Scheduler sched;
  std::vector<int> order;
  auto proc = [](std::vector<int>& ord, int id, SimDuration d) -> Task<> {
    co_await delay(d);
    ord.push_back(id);
  };
  sched.spawn(proc(order, 3, 30_us));
  sched.spawn(proc(order, 1, 10_us));
  sched.spawn(proc(order, 2, 20_us));
  sched.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(Scheduler, TieBrokenByInsertionOrder) {
  Scheduler sched;
  std::vector<int> order;
  auto proc = [](std::vector<int>& ord, int id) -> Task<> {
    co_await delay(5_us);
    ord.push_back(id);
  };
  for (int i = 0; i < 5; ++i) sched.spawn(proc(order, i));
  sched.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(Scheduler, ZeroDelayYieldsButRunsSameInstant) {
  Scheduler sched;
  SimTime when{-1};
  sched.spawn([](Scheduler& s, SimTime& out) -> Task<> {
    co_await yield();
    out = s.now();
  }(sched, when));
  sched.run();
  EXPECT_EQ(when, SimTime::zero());
}

TEST(Scheduler, SubTaskAwaitPropagatesResult) {
  Scheduler sched;
  int result = 0;
  auto child = []() -> Task<int> {
    co_await delay(2_us);
    co_return 42;
  };
  sched.spawn([](decltype(child)& c, int& out) -> Task<> {
    out = co_await c();
  }(child, result));
  sched.run();
  EXPECT_EQ(result, 42);
}

TEST(Scheduler, SubTaskAdvancesParentClock) {
  Scheduler sched;
  SimTime after{-1};
  auto child = []() -> Task<> { co_await delay(7_us); };
  sched.spawn([](Scheduler& s, decltype(child)& c, SimTime& out) -> Task<> {
    co_await c();
    out = s.now();
  }(sched, child, after));
  sched.run();
  EXPECT_EQ(after, SimTime::zero() + 7_us);
}

TEST(Scheduler, NestedSubTasks) {
  Scheduler sched;
  int depth_sum = 0;
  auto leaf = []() -> Task<int> {
    co_await delay(1_us);
    co_return 1;
  };
  auto mid = [&leaf]() -> Task<int> {
    const int a = co_await leaf();
    const int b = co_await leaf();
    co_return a + b + 10;
  };
  sched.spawn([](decltype(mid)& m, int& out) -> Task<> {
    out = co_await m();
  }(mid, depth_sum));
  sched.run();
  EXPECT_EQ(depth_sum, 12);
}

TEST(Scheduler, ExceptionInRootPropagatesFromRun) {
  Scheduler sched;
  sched.spawn([]() -> Task<> {
    co_await delay(1_us);
    throw std::runtime_error{"boom"};
  }());
  EXPECT_THROW(sched.run(), std::runtime_error);
}

TEST(Scheduler, ExceptionInChildPropagatesToParent) {
  Scheduler sched;
  bool caught = false;
  auto child = []() -> Task<> {
    co_await delay(1_us);
    throw std::runtime_error{"child failed"};
  };
  sched.spawn([](decltype(child)& c, bool& flag) -> Task<> {
    try {
      co_await c();
    } catch (const std::runtime_error&) {
      flag = true;
    }
  }(child, caught));
  sched.run();
  EXPECT_TRUE(caught);
}

TEST(Scheduler, RunUntilStopsAtDeadline) {
  Scheduler sched;
  int progressed = 0;
  sched.spawn([](int& p) -> Task<> {
    co_await delay(10_us);
    p = 1;
    co_await delay(10_us);
    p = 2;
  }(progressed));
  sched.run_until(SimTime::zero() + 15_us);
  EXPECT_EQ(progressed, 1);
  EXPECT_EQ(sched.now(), SimTime::zero() + 15_us);
  sched.run();
  EXPECT_EQ(progressed, 2);
}

TEST(Scheduler, UnfinishedCountDetectsPendingRoots) {
  Scheduler sched;
  sched.spawn([]() -> Task<> { co_await delay(100_us); }());
  sched.run_until(SimTime::zero() + 1_us);
  EXPECT_EQ(sched.unfinished_count(), 1u);
  sched.run();
  EXPECT_EQ(sched.unfinished_count(), 0u);
}

TEST(Scheduler, CurrentSchedulerAwaitable) {
  Scheduler sched;
  Scheduler* seen = nullptr;
  sched.spawn([](Scheduler** out) -> Task<> {
    *out = co_await current_scheduler();
  }(&seen));
  sched.run();
  EXPECT_EQ(seen, &sched);
}

TEST(Scheduler, CallsAndCoroutinesInterleaveInInsertionOrder) {
  // Plain calls and coroutine resumptions share one (time, seq) order: at
  // t = 0 the spawned processes and the calls run as queued, and at 5 us
  // the calls queued up front come before the resumptions the processes
  // queued while running.
  Scheduler sched;
  std::vector<int> order;
  std::vector<int>* log = &order;
  auto proc = [](std::vector<int>& ord, int id) -> Task<> {
    ord.push_back(id);
    co_await delay(5_us);
    ord.push_back(id + 100);
  };
  for (int i = 0; i < 6; i += 2) {
    sched.spawn(proc(order, i));
    sched.call_at([log, i] { log->push_back(i + 1); }, SimTime::zero());
    sched.call_at([log, i] { log->push_back(i + 101); }, SimTime::zero() + 5_us);
  }
  sched.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4, 5, 101, 103, 105, 100, 102, 104}));
  EXPECT_EQ(sched.executed_events(), 12u);
  EXPECT_EQ(sched.unfinished_count(), 0u);
}

TEST(Scheduler, ThrowingCallIsRethrownAfterTheRun) {
  Scheduler sched;
  std::vector<int> order;
  std::vector<int>* log = &order;
  sched.call_at([] { throw std::runtime_error{"call failed"}; }, SimTime::zero() + 1_us);
  sched.call_at([log] { log->push_back(1); }, SimTime::zero() + 2_us);
  sched.spawn([](std::vector<int>& ord) -> Task<> {
    co_await delay(3_us);
    ord.push_back(2);
  }(order));
  try {
    sched.run();
    ADD_FAILURE() << "run() must rethrow the failed call";
  } catch (const std::runtime_error& e) {
    EXPECT_EQ(std::string{e.what()}, "call failed");
  }
  // The failure stopped nothing: every later event ran.
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
  EXPECT_EQ(sched.now(), SimTime::zero() + 3_us);
  EXPECT_EQ(sched.executed_events(), 4u);
  EXPECT_EQ(sched.unfinished_count(), 0u);
}

TEST(Scheduler, QueuedCallsReturnToTheArenaOnDestruction) {
  // Each scheduler runs one call and is destroyed with a second still
  // queued. Its node must go back to the bound arena: after the first
  // scheduler, every node is a reused block and nothing more is carved.
  FrameArena arena;
  ArenaScope scope{arena};
  int hits = 0;
  int* p = &hits;
  std::uint64_t carved_after_first = 0;
  for (int i = 0; i < 1'000; ++i) {
    {
      Scheduler sched;
      sched.call_at([p] { ++*p; }, SimTime::zero() + 1_us);
      sched.call_at([p] { ++*p; }, SimTime::zero() + 2_us);
      sched.run_until(SimTime::zero() + 1_us);
    }
    if (i == 0) carved_after_first = arena.stats().carved;
  }
  EXPECT_EQ(hits, 1'000);
  EXPECT_GT(carved_after_first, 0u);
  EXPECT_EQ(arena.stats().carved, carved_after_first);
}

TEST(Scheduler, ManyEventsStressDeterminism) {
  auto run_once = [] {
    Scheduler sched;
    std::vector<int> order;
    auto proc = [](std::vector<int>& ord, int id) -> Task<> {
      for (int i = 0; i < 10; ++i) co_await delay(SimDuration{(id * 7 + i * 13) % 50 + 1});
      ord.push_back(id);
    };
    for (int i = 0; i < 50; ++i) sched.spawn(proc(order, i));
    sched.run();
    return order;
  };
  EXPECT_EQ(run_once(), run_once());
}

}  // namespace
}  // namespace rsd::sim

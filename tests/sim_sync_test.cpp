#include "sim/sync.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "sim/scheduler.hpp"
#include "sim/task.hpp"

namespace rsd::sim {
namespace {

using namespace rsd::literals;

TEST(Event, WaitersResumeOnTrigger) {
  Scheduler sched;
  Event ev{sched};
  std::vector<int> order;

  auto waiter = [](Event& e, std::vector<int>& ord, int id) -> Task<> {
    co_await e.wait();
    ord.push_back(id);
  };
  sched.spawn(waiter(ev, order, 1));
  sched.spawn(waiter(ev, order, 2));
  sched.spawn([](Event& e, std::vector<int>& ord) -> Task<> {
    co_await delay(5_us);
    ord.push_back(0);
    e.trigger();
  }(ev, order));
  sched.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2}));
  EXPECT_EQ(sched.unfinished_count(), 0u);
}

TEST(Event, WaitAfterTriggerDoesNotBlock) {
  Scheduler sched;
  Event ev{sched};
  SimTime when{-1};
  sched.spawn([](Event& e) -> Task<> {
    e.trigger();
    co_return;
  }(ev));
  sched.spawn([](Scheduler& s, Event& e, SimTime& out) -> Task<> {
    co_await delay(3_us);
    co_await e.wait();
    out = s.now();
  }(sched, ev, when));
  sched.run();
  EXPECT_EQ(when, SimTime::zero() + 3_us);
}

TEST(Event, DoubleTriggerIsIdempotent) {
  Scheduler sched;
  Event ev{sched};
  ev.trigger();
  ev.trigger();
  EXPECT_TRUE(ev.triggered());
}

TEST(WaitGroup, WaitsForAll) {
  Scheduler sched;
  WaitGroup wg{sched};
  SimTime finished{-1};

  auto worker = [](WaitGroup& w, SimDuration d) -> Task<> {
    co_await delay(d);
    w.done();
  };
  wg.add(3);
  sched.spawn(worker(wg, 10_us));
  sched.spawn(worker(wg, 30_us));
  sched.spawn(worker(wg, 20_us));
  sched.spawn([](Scheduler& s, WaitGroup& w, SimTime& out) -> Task<> {
    co_await w.wait();
    out = s.now();
  }(sched, wg, finished));
  sched.run();
  EXPECT_EQ(finished, SimTime::zero() + 30_us);
}

TEST(WaitGroup, ZeroCountWaitReturnsOnlyAfterTrigger) {
  Scheduler sched;
  WaitGroup wg{sched};
  wg.add(1);
  wg.done();
  SimTime when{-1};
  sched.spawn([](Scheduler& s, WaitGroup& w, SimTime& out) -> Task<> {
    co_await w.wait();
    out = s.now();
  }(sched, wg, when));
  sched.run();
  EXPECT_EQ(when, SimTime::zero());
}

TEST(Barrier, AllPartiesLeaveTogether) {
  Scheduler sched;
  Barrier barrier{sched, 3};
  std::vector<std::int64_t> leave_times;
  auto proc = [](Scheduler& s, Barrier& b, std::vector<std::int64_t>& t,
                 SimDuration arrive_after) -> Task<> {
    co_await delay(arrive_after);
    co_await b.arrive_and_wait();
    t.push_back(s.now().ns());
  };
  sched.spawn(proc(sched, barrier, leave_times, 5_us));
  sched.spawn(proc(sched, barrier, leave_times, 20_us));
  sched.spawn(proc(sched, barrier, leave_times, 12_us));
  sched.run();
  ASSERT_EQ(leave_times.size(), 3u);
  for (const auto t : leave_times) EXPECT_EQ(t, 20'000);  // the last arriver
  EXPECT_EQ(barrier.generation(), 1);
}

TEST(Barrier, ReusableAcrossGenerations) {
  Scheduler sched;
  Barrier barrier{sched, 2};
  std::vector<std::int64_t> times;
  auto proc = [](Scheduler& s, Barrier& b, std::vector<std::int64_t>& t,
                 SimDuration step) -> Task<> {
    for (int i = 0; i < 3; ++i) {
      co_await delay(step);
      co_await b.arrive_and_wait();
      t.push_back(s.now().ns());
    }
  };
  sched.spawn(proc(sched, barrier, times, 10_us));
  sched.spawn(proc(sched, barrier, times, 25_us));
  sched.run();
  ASSERT_EQ(times.size(), 6u);
  // Each generation releases at the slower party's arrival: 25, 50, 75 us.
  std::sort(times.begin(), times.end());
  EXPECT_EQ(times[0], 25'000);
  EXPECT_EQ(times[1], 25'000);
  EXPECT_EQ(times[2], 50'000);
  EXPECT_EQ(times[4], 75'000);
  EXPECT_EQ(barrier.generation(), 3);
}

TEST(Barrier, SinglePartyNeverBlocks) {
  Scheduler sched;
  Barrier barrier{sched, 1};
  SimTime when{-1};
  sched.spawn([](Scheduler& s, Barrier& b, SimTime& out) -> Task<> {
    co_await b.arrive_and_wait();
    co_await b.arrive_and_wait();
    out = s.now();
  }(sched, barrier, when));
  sched.run();
  EXPECT_EQ(when, SimTime::zero());
  EXPECT_EQ(sched.unfinished_count(), 0u);
}

}  // namespace
}  // namespace rsd::sim

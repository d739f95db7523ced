#include "sim/sync.hpp"

#include <gtest/gtest.h>

#include <string>
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

TEST(Semaphore, MutualExclusionSerializes) {
  Scheduler sched;
  Semaphore sem{sched, 1};
  std::vector<std::pair<int, std::int64_t>> log;

  auto proc = [](Scheduler& s, Semaphore& m, std::vector<std::pair<int, std::int64_t>>& lg,
                 int id) -> Task<> {
    co_await m.acquire();
    lg.emplace_back(id, s.now().ns());
    co_await delay(10_us);
    m.release();
  };
  for (int i = 0; i < 3; ++i) sched.spawn(proc(sched, sem, log, i));
  sched.run();

  ASSERT_EQ(log.size(), 3u);
  // FIFO order, each entering 10us after the previous.
  EXPECT_EQ(log[0], (std::pair<int, std::int64_t>{0, 0}));
  EXPECT_EQ(log[1], (std::pair<int, std::int64_t>{1, 10'000}));
  EXPECT_EQ(log[2], (std::pair<int, std::int64_t>{2, 20'000}));
}

TEST(Semaphore, CountingAllowsConcurrency) {
  Scheduler sched;
  Semaphore sem{sched, 2};
  std::vector<std::int64_t> entry_times;

  auto proc = [](Scheduler& s, Semaphore& m, std::vector<std::int64_t>& t) -> Task<> {
    co_await m.acquire();
    t.push_back(s.now().ns());
    co_await delay(10_us);
    m.release();
  };
  for (int i = 0; i < 4; ++i) sched.spawn(proc(sched, sem, entry_times));
  sched.run();

  ASSERT_EQ(entry_times.size(), 4u);
  EXPECT_EQ(entry_times[0], 0);
  EXPECT_EQ(entry_times[1], 0);
  EXPECT_EQ(entry_times[2], 10'000);
  EXPECT_EQ(entry_times[3], 10'000);
}

TEST(Semaphore, ReleaseWithoutWaitersIncrementsCount) {
  Scheduler sched;
  Semaphore sem{sched, 0};
  sem.release();
  EXPECT_EQ(sem.available(), 1);
  SimTime when{-1};
  sched.spawn([](Scheduler& s, Semaphore& m, SimTime& out) -> Task<> {
    co_await m.acquire();
    out = s.now();
  }(sched, sem, when));
  sched.run();
  EXPECT_EQ(when, SimTime::zero());
  EXPECT_EQ(sem.available(), 0);
}

TEST(Semaphore, PermitNotStolenByLateArriver) {
  // A process that calls acquire() at the same instant a permit is handed
  // to a queued waiter must not jump the queue.
  Scheduler sched;
  Semaphore sem{sched, 1};
  std::vector<int> order;

  auto holder = [](Semaphore& m) -> Task<> {
    co_await m.acquire();
    co_await delay(10_us);
    m.release();
  };
  auto queued = [](Semaphore& m, std::vector<int>& ord) -> Task<> {
    co_await yield();  // arrive second
    co_await m.acquire();
    ord.push_back(1);
    m.release();
  };
  auto late = [](Semaphore& m, std::vector<int>& ord) -> Task<> {
    co_await delay(10_us);  // arrives exactly when the release happens
    co_await m.acquire();
    ord.push_back(2);
    m.release();
  };
  sched.spawn(holder(sem));
  sched.spawn(queued(sem, order));
  sched.spawn(late(sem, order));
  sched.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
  EXPECT_EQ(sched.unfinished_count(), 0u);
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

TEST(Channel, PutThenGet) {
  Scheduler sched;
  Channel<int> ch{sched};
  int got = 0;
  ch.put(7);
  sched.spawn([](Channel<int>& c, int& out) -> Task<> {
    out = co_await c.get();
  }(ch, got));
  sched.run();
  EXPECT_EQ(got, 7);
}

TEST(Channel, GetBlocksUntilPut) {
  Scheduler sched;
  Channel<std::string> ch{sched};
  std::string got;
  SimTime when{-1};
  sched.spawn([](Scheduler& s, Channel<std::string>& c, std::string& out, SimTime& t) -> Task<> {
    out = co_await c.get();
    t = s.now();
  }(sched, ch, got, when));
  sched.spawn([](Channel<std::string>& c) -> Task<> {
    co_await delay(25_us);
    c.put("hello");
  }(ch));
  sched.run();
  EXPECT_EQ(got, "hello");
  EXPECT_EQ(when, SimTime::zero() + 25_us);
}

TEST(Channel, FifoOrderAcrossManyItems) {
  Scheduler sched;
  Channel<int> ch{sched};
  std::vector<int> got;
  sched.spawn([](Channel<int>& c, std::vector<int>& out) -> Task<> {
    for (int i = 0; i < 5; ++i) out.push_back(co_await c.get());
  }(ch, got));
  sched.spawn([](Channel<int>& c) -> Task<> {
    for (int i = 0; i < 5; ++i) {
      co_await delay(1_us);
      c.put(i);
    }
  }(ch));
  sched.run();
  EXPECT_EQ(got, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(Channel, MultipleGettersServedFifo) {
  Scheduler sched;
  Channel<int> ch{sched};
  std::vector<std::pair<int, int>> received;  // (getter id, value)

  auto getter = [](Channel<int>& c, std::vector<std::pair<int, int>>& out, int id) -> Task<> {
    const int v = co_await c.get();
    out.emplace_back(id, v);
  };
  sched.spawn(getter(ch, received, 0));
  sched.spawn(getter(ch, received, 1));
  sched.spawn([](Channel<int>& c) -> Task<> {
    co_await delay(1_us);
    c.put(100);
    c.put(200);
  }(ch));
  sched.run();
  ASSERT_EQ(received.size(), 2u);
  EXPECT_EQ(received[0], (std::pair<int, int>{0, 100}));
  EXPECT_EQ(received[1], (std::pair<int, int>{1, 200}));
}

TEST(Channel, SizeTracksBufferedItems) {
  Scheduler sched;
  Channel<int> ch{sched};
  EXPECT_TRUE(ch.empty());
  ch.put(1);
  ch.put(2);
  EXPECT_EQ(ch.size(), 2u);
}

}  // namespace
}  // namespace rsd::sim

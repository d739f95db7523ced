// Parameterized property suites for the DES substrate: invariants that must
// hold across a sweep of configurations, not just hand-picked examples.
#include <gtest/gtest.h>

#include <vector>

#include "sim/scheduler.hpp"
#include "sim/task.hpp"

namespace rsd::sim {
namespace {

// ---------------------------------------------------------------------
// Property: the scheduler's clock is monotone through arbitrary workloads,
// and the same workload replays to the identical final time.
class ClockMonotonicity : public testing::TestWithParam<int> {};

TEST_P(ClockMonotonicity, MonotoneAndReplayable) {
  const int seed = GetParam();
  auto run = [seed] {
    Scheduler sched;
    std::vector<std::int64_t> stamps;
    auto proc = [](Scheduler& s, std::vector<std::int64_t>& t, int salt) -> Task<> {
      for (int i = 0; i < 20; ++i) {
        co_await delay(SimDuration{(salt * 31 + i * 17) % 97 + 1});
        t.push_back(s.now().ns());
      }
    };
    for (int p = 0; p < 8; ++p) sched.spawn(proc(sched, stamps, seed * 8 + p));
    sched.run();
    return stamps;
  };
  const auto a = run();
  const auto b = run();
  EXPECT_EQ(a, b);
  for (std::size_t i = 1; i < a.size(); ++i) EXPECT_GE(a[i], a[i - 1]);
}

INSTANTIATE_TEST_SUITE_P(Seeds, ClockMonotonicity, testing::Range(0, 6));

}  // namespace
}  // namespace rsd::sim

#include "exec/team.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <numeric>
#include <string>
#include <vector>

#include "core/error.hpp"

namespace rsd::exec {
namespace {

TEST(Team, DefaultSimThreadCountIsSequential) {
  ::unsetenv("RSD_SIM_THREADS");
  EXPECT_EQ(default_sim_thread_count(), 1);
}

TEST(Team, DefaultSimThreadCountReadsEnv) {
  ::setenv("RSD_SIM_THREADS", "6", 1);
  EXPECT_EQ(default_sim_thread_count(), 6);
  ::setenv("RSD_SIM_THREADS", "", 1);
  EXPECT_EQ(default_sim_thread_count(), 1);
  // Anything but a whole integer >= 1 is rejected, naming the variable.
  for (const char* bad : {"0", "nonsense", "4x"}) {
    ::setenv("RSD_SIM_THREADS", bad, 1);
    try {
      (void)default_sim_thread_count();
      ADD_FAILURE() << "expected rsd::Error for RSD_SIM_THREADS=" << bad;
    } catch (const Error& e) {
      EXPECT_EQ(e.code(), ErrorCode::kInvalidArgument) << bad;
      EXPECT_NE(std::string{e.what()}.find("RSD_SIM_THREADS"), std::string::npos) << bad;
    }
  }
  ::unsetenv("RSD_SIM_THREADS");
}

TEST(Team, SingleThreadRunsSerially) {
  Team team{1};
  EXPECT_EQ(team.size(), 1);
  std::vector<int> hits(64, 0);
  team.run(hits.size(), [&](std::size_t i) { ++hits[i]; });
  for (int h : hits) EXPECT_EQ(h, 1);
}

TEST(Team, EveryItemRunsExactlyOnce) {
  Team team{4};
  EXPECT_EQ(team.size(), 4);
  std::vector<std::atomic<int>> hits(1000);
  team.run(hits.size(), [&](std::size_t i) { hits[i].fetch_add(1); });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(Team, BackToBackEpochsReuseWorkers) {
  // Thousands of tiny epochs: the shape the conservative engine produces.
  // Under TSan this also exercises the epoch/retire release-acquire chain.
  Team team{4};
  std::vector<std::int64_t> data(128, 0);
  for (int epoch = 0; epoch < 2000; ++epoch) {
    team.run(data.size(), [&](std::size_t i) { ++data[i]; });
  }
  for (std::int64_t v : data) EXPECT_EQ(v, 2000);
}

TEST(Team, CallerSeesWorkerWritesAfterRun) {
  // run() returning must order every worker's plain writes before the
  // caller's reads (the engine reads partition state between epochs).
  Team team{3};
  std::vector<std::int64_t> out(256, 0);
  team.run(out.size(), [&](std::size_t i) { out[i] = static_cast<std::int64_t>(i * i); });
  std::int64_t sum = std::accumulate(out.begin(), out.end(), std::int64_t{0});
  std::int64_t expect = 0;
  for (std::size_t i = 0; i < out.size(); ++i) expect += static_cast<std::int64_t>(i * i);
  EXPECT_EQ(sum, expect);
}

TEST(Team, ItemsExceedingWidthAllExecute) {
  Team team{8};
  std::atomic<int> count{0};
  team.run(3, [&](std::size_t) { count.fetch_add(1); });  // fewer items than threads
  EXPECT_EQ(count.load(), 3);
  count.store(0);
  team.run(0, [&](std::size_t) { count.fetch_add(1); });  // empty epoch
  EXPECT_EQ(count.load(), 0);
}

TEST(Team, ClaimJitterDoesNotChangeCoverage) {
  Team team{4};
  team.set_claim_jitter(0xfeedULL);
  std::vector<std::atomic<int>> hits(512);
  for (int epoch = 0; epoch < 50; ++epoch) {
    team.run(hits.size(), [&](std::size_t i) { hits[i].fetch_add(1); });
  }
  for (const auto& h : hits) EXPECT_EQ(h.load(), 50);
}

}  // namespace
}  // namespace rsd::exec

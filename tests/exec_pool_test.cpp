#include "exec/pool.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <numeric>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "core/csv.hpp"
#include "core/error.hpp"
#include "proxy/proxy.hpp"

namespace rsd::exec {
namespace {

std::vector<int> iota_items(int n) {
  std::vector<int> items(static_cast<std::size_t>(n));
  std::iota(items.begin(), items.end(), 0);
  return items;
}

TEST(Pool, SizeClampsToAtLeastOne) {
  Pool pool{0};
  EXPECT_EQ(pool.size(), 1);
}

TEST(Pool, DefaultThreadCountHonorsEnv) {
  ASSERT_EQ(setenv("RSD_THREADS", "3", 1), 0);
  EXPECT_EQ(default_thread_count(), 3);
  ASSERT_EQ(setenv("RSD_THREADS", "", 1), 0);
  EXPECT_GE(default_thread_count(), 1);  // empty: hardware concurrency
  // Anything but a whole integer >= 1 is rejected, naming the variable.
  for (const char* bad : {"not-a-number", "2junk", "0", "-2"}) {
    ASSERT_EQ(setenv("RSD_THREADS", bad, 1), 0);
    try {
      (void)default_thread_count();
      ADD_FAILURE() << "expected rsd::Error for RSD_THREADS=" << bad;
    } catch (const Error& e) {
      EXPECT_EQ(e.code(), ErrorCode::kInvalidArgument) << bad;
      EXPECT_NE(std::string{e.what()}.find("RSD_THREADS"), std::string::npos) << bad;
    }
  }
  ASSERT_EQ(unsetenv("RSD_THREADS"), 0);
}

TEST(Pool, MapIsInputOrderedOnSingleThreadPool) {
  Pool pool{1};
  const auto out = pool.parallel_map(iota_items(100), [](const int i) { return i * i; });
  ASSERT_EQ(out.size(), 100u);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(out[static_cast<std::size_t>(i)], i * i);
}

TEST(Pool, MapIsInputOrderedOnManyThreadPool) {
  Pool pool{8};
  // Early items sleep longest, so completion order inverts input order —
  // the result vector must still be input-indexed.
  const auto out = pool.parallel_map(iota_items(64), [](const int i) {
    std::this_thread::sleep_for(std::chrono::microseconds((64 - i) * 20));
    return i * 10;
  });
  ASSERT_EQ(out.size(), 64u);
  for (int i = 0; i < 64; ++i) EXPECT_EQ(out[static_cast<std::size_t>(i)], i * 10);
}

TEST(Pool, SerialAndParallelMapAgree) {
  Pool serial{1};
  Pool parallel{4};
  const auto items = iota_items(200);
  const auto f = [](const int i) { return i * 3 + 1; };
  EXPECT_EQ(serial.parallel_map(items, f), parallel.parallel_map(items, f));
}

TEST(Pool, ExceptionSurfacesWithLowestInputIndex) {
  for (const int threads : {1, 4}) {
    Pool pool{threads};
    try {
      (void)pool.parallel_map(iota_items(100), [](const int i) {
        if (i == 17 || i == 80) throw std::runtime_error{std::to_string(i)};
        return i;
      });
      FAIL() << "expected an exception (pool size " << threads << ")";
    } catch (const std::runtime_error& e) {
      EXPECT_STREQ(e.what(), "17");
    }
  }
}

TEST(Pool, ParallelForCoversEveryIndexExactlyOnce) {
  Pool pool{4};
  std::vector<std::atomic<int>> hits(257);
  pool.parallel_for(hits.size(), [&](std::size_t i) { hits[i].fetch_add(1); });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(Pool, NestedParallelMapDoesNotDeadlock) {
  // More outer items than workers, each fanning out again on the same
  // pool: the submitting thread must finish its own batch even when every
  // worker is occupied.
  Pool pool{2};
  const auto sums = pool.parallel_map(iota_items(8), [&](const int outer) {
    const auto inner = pool.parallel_map(iota_items(16), [outer](const int i) {
      return outer * 100 + i;
    });
    int sum = 0;
    for (const int v : inner) sum += v;
    return sum;
  });
  ASSERT_EQ(sums.size(), 8u);
  for (int outer = 0; outer < 8; ++outer) {
    EXPECT_EQ(sums[static_cast<std::size_t>(outer)], outer * 1600 + 120);
  }
}

TEST(Pool, EmptyInputYieldsEmptyOutput) {
  Pool pool{4};
  EXPECT_TRUE(pool.parallel_map(std::vector<int>{}, [](const int i) { return i; }).empty());
  pool.parallel_for(0, [](std::size_t) { FAIL() << "must not be called"; });
}

/// Determinism regression for the hot sweep: the parallel fan-out must
/// reproduce the serial sweep byte-for-byte (this is what keeps every
/// downstream CSV identical regardless of RSD_THREADS).
TEST(SweepDeterminism, SerialAndParallelSweepsAreBitIdentical) {
  using namespace rsd::literals;
  const proxy::ProxyRunner runner;
  proxy::SweepConfig cfg;
  cfg.matrix_sizes = {1 << 9, 1 << 11, 1 << 15};
  cfg.thread_counts = {1, 2, 4};  // (2^15, 4) exercises the OOM exclusion
  cfg.slacks = {SimDuration::zero(), 1_us, 1_ms};
  cfg.target_compute = 200_ms;

  Pool serial{1};
  Pool parallel{4};
  const auto a = run_slack_sweep(runner, cfg, serial);
  const auto b = run_slack_sweep(runner, cfg, parallel);

  const auto to_csv = [](const std::vector<proxy::SweepPoint>& points) {
    CsvWriter csv;
    csv.row("matrix_n", "threads", "slack_us", "normalized_runtime");
    for (const auto& p : points) csv.row(p.matrix_n, p.threads, p.slack.us(), p.normalized_runtime);
    return csv.str();
  };
  EXPECT_EQ(to_csv(a), to_csv(b));

  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].result.loop_runtime, b[i].result.loop_runtime);
    EXPECT_EQ(a[i].result.no_slack_time, b[i].result.no_slack_time);
    EXPECT_EQ(a[i].result.iterations, b[i].result.iterations);
    EXPECT_EQ(a[i].normalized_runtime, b[i].normalized_runtime);
  }
}

}  // namespace
}  // namespace rsd::exec

#include "proxy/sweep_cache.hpp"

#include <gtest/gtest.h>

#include <unistd.h>

#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "core/csv.hpp"
#include "exec/pool.hpp"

namespace rsd::proxy {
namespace {

namespace fs = std::filesystem;
using namespace rsd::literals;

SweepConfig small_config() {
  SweepConfig cfg;
  cfg.matrix_sizes = {1 << 9, 1 << 11};
  cfg.thread_counts = {1, 2};
  cfg.slacks = {SimDuration::zero(), 10_us, 1_ms};
  cfg.target_compute = 100_ms;
  return cfg;
}

std::string to_csv(const std::vector<SweepPoint>& points) {
  CsvWriter csv;
  for (const auto& p : points) {
    csv.row(p.matrix_n, p.threads, p.slack.ns(), p.normalized_runtime,
            p.result.kernel_duration.ns(), p.result.matrix_bytes, p.result.iterations,
            p.result.loop_runtime.ns(), p.result.no_slack_time.ns(),
            p.result.cuda_calls_per_thread);
  }
  return csv.str();
}

/// A cache directory of this test's own: ctest runs each case as its own
/// process, possibly in parallel, so the name carries the test and the pid.
struct TempDir {
  fs::path path;
  TempDir()
      : path(fs::temp_directory_path() /
             ("rsd_sweep_cache_test_" +
              std::string{::testing::UnitTest::GetInstance()->current_test_info()->name()} +
              "_" + std::to_string(::getpid()))) {
    fs::remove_all(path);
  }
  ~TempDir() { fs::remove_all(path); }
};

/// The single cache entry in `dir`.
fs::path only_entry(const fs::path& dir) {
  std::vector<fs::path> entries;
  for (const auto& e : fs::directory_iterator(dir)) entries.push_back(e.path());
  EXPECT_EQ(entries.size(), 1u);
  return entries.empty() ? fs::path{} : entries.front();
}

std::vector<std::string> read_lines(const fs::path& file) {
  std::ifstream in{file};
  std::vector<std::string> lines;
  for (std::string line; std::getline(in, line);) lines.push_back(line);
  return lines;
}

void write_lines(const fs::path& file, const std::vector<std::string>& lines) {
  std::ofstream out{file, std::ios::trunc};
  for (const std::string& line : lines) out << line << '\n';
}

TEST(SweepCache, MemoizesAndRoundTripsThroughDisk) {
  TempDir tmp;
  const ProxyRunner runner;
  const SweepConfig cfg = small_config();

  SweepCache cache{tmp.path};
  const auto fresh = cache.get_or_run(runner, cfg);
  EXPECT_FALSE(fresh.empty());
  EXPECT_EQ(to_csv(fresh), to_csv(run_slack_sweep(runner, cfg)));

  // In-process memoization.
  EXPECT_EQ(to_csv(cache.get_or_run(runner, cfg)), to_csv(fresh));

  // Cross-process path: a new cache on the same directory must load the
  // persisted CSV and reproduce the sweep bit-for-bit.
  SweepCache reopened{tmp.path};
  const auto loaded = reopened.get_or_run(runner, cfg);
  EXPECT_EQ(to_csv(loaded), to_csv(fresh));

  // And the entry really is on disk.
  bool found = false;
  for (const auto& e : fs::directory_iterator(tmp.path)) {
    if (e.path().extension() == ".csv") found = true;
  }
  EXPECT_TRUE(found);
}

TEST(SweepCache, FingerprintDependsOnGridAndCalibration) {
  const ProxyRunner a;
  SweepConfig cfg = small_config();
  const std::uint64_t base = SweepCache::fingerprint(a, cfg);

  SweepConfig denser = cfg;
  denser.matrix_sizes.push_back(1 << 13);
  EXPECT_NE(SweepCache::fingerprint(a, denser), base);

  SweepConfig slower = cfg;
  slower.target_compute = 200_ms;
  EXPECT_NE(SweepCache::fingerprint(a, slower), base);

  gpu::DeviceParams params;
  params.matmul_tflops *= 2.0;
  const ProxyRunner faster{params, a.link_params()};
  EXPECT_NE(SweepCache::fingerprint(faster, cfg), base);

  EXPECT_EQ(SweepCache::fingerprint(a, cfg), base);  // stable
}

TEST(SweepCache, CorruptEntryIsRebuilt) {
  TempDir tmp;
  const ProxyRunner runner;
  const SweepConfig cfg = small_config();

  SweepCache cache{tmp.path};
  const auto fresh = cache.get_or_run(runner, cfg);

  // Truncate every cache file, then force a reload from disk.
  for (const auto& e : fs::directory_iterator(tmp.path)) {
    std::ofstream out{e.path(), std::ios::trunc};
  }
  SweepCache reopened{tmp.path};
  EXPECT_EQ(to_csv(reopened.get_or_run(runner, cfg)), to_csv(fresh));
}

TEST(SweepCache, FileCutAtALineBoundaryIsRebuilt) {
  TempDir tmp;
  const ProxyRunner runner;
  const SweepConfig cfg = small_config();
  const auto fresh = SweepCache{tmp.path}.get_or_run(runner, cfg);

  // Every row is well-formed, but the last cell of the grid is missing.
  const fs::path file = only_entry(tmp.path);
  std::vector<std::string> lines = read_lines(file);
  ASSERT_EQ(lines.size(), fresh.size() + 1);  // header + one row per point
  lines.pop_back();
  write_lines(file, lines);

  SweepCache reopened{tmp.path};
  const auto loaded = reopened.get_or_run(runner, cfg);
  EXPECT_EQ(to_csv(loaded), to_csv(fresh));
  EXPECT_EQ(reopened.disk_loads(), 0u);
  EXPECT_EQ(reopened.sweeps_computed(), 1u);
}

TEST(SweepCache, EmptyCellIsRebuiltNotThrown) {
  TempDir tmp;
  const ProxyRunner runner;
  const SweepConfig cfg = small_config();
  const auto fresh = SweepCache{tmp.path}.get_or_run(runner, cfg);

  // A torn write: the first data row loses its iteration count.
  const fs::path file = only_entry(tmp.path);
  std::vector<std::string> lines = read_lines(file);
  ASSERT_GE(lines.size(), 2u);
  std::string& row = lines[1];
  std::size_t comma = 0;
  for (int i = 0; i < 6; ++i) comma = row.find(',', comma) + 1;  // start of cell 6
  row.erase(comma, row.find(',', comma) - comma);
  write_lines(file, lines);

  SweepCache reopened{tmp.path};
  std::vector<SweepPoint> loaded;
  ASSERT_NO_THROW(loaded = reopened.get_or_run(runner, cfg));
  EXPECT_EQ(to_csv(loaded), to_csv(fresh));
  EXPECT_EQ(reopened.sweeps_computed(), 1u);
}

}  // namespace
}  // namespace rsd::proxy

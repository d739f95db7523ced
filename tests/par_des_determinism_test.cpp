// Thread-count invariance of the partitioned parallel engine at the
// system level: the tracked fig3 golden CSV and a multi-GPU CosmoFlow row
// run must be byte-identical (same fingerprint/digest) whether the
// simulation runs on 1, 2, or 8 worker threads, and regardless of worker
// wakeup order (claim jitter). sim_partition_test covers the protocol at
// the engine level; this file proves the guarantee holds through the
// harness, the env override, and a real application.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>

#include "apps/cosmoflow.hpp"
#include "exec/team.hpp"
#include "harness/context.hpp"
#include "harness/experiment.hpp"
#include "harness/registry.hpp"
#include "obs/tracer.hpp"

namespace {

using namespace rsd;
namespace fs = std::filesystem;

std::string read_file(const fs::path& path) {
  std::ifstream in{path, std::ios::binary};
  std::stringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

std::uint64_t fnv1a64(const std::string& bytes) {
  std::uint64_t h = 14695981039346656037ULL;
  for (const char c : bytes) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ULL;
  }
  return h;
}

// Same golden as harness_determinism_test: the fingerprint of the tracked
// bench_results/fig3_slack_sweep.csv. Running the experiment with the
// RSD_SIM_THREADS override active must not move a byte.
constexpr std::uint64_t kFig3GoldenFnv1a = 0x266090334f7d1647ULL;
constexpr std::size_t kFig3GoldenBytes = 1964;

// RAII env override so a failing ASSERT can't leak the variable into
// later tests in this binary.
class ScopedEnv {
 public:
  ScopedEnv(const char* name, const std::string& value) : name_(name) {
    ::setenv(name, value.c_str(), /*overwrite=*/1);
  }
  ~ScopedEnv() { ::unsetenv(name_); }
  ScopedEnv(const ScopedEnv&) = delete;
  ScopedEnv& operator=(const ScopedEnv&) = delete;

 private:
  const char* name_;
};

std::string run_fig3_csv_with_sim_threads(int sim_threads) {
  const ScopedEnv env{"RSD_SIM_THREADS", std::to_string(sim_threads)};
  const fs::path dir =
      fs::path{testing::TempDir()} / ("rsd_fig3_simthreads_" + std::to_string(sim_threads));
  fs::remove_all(dir);

  harness::ExperimentContext::Options options;
  options.results_dir = dir;
  std::ostringstream sink;
  options.out = &sink;
  harness::ExperimentContext ctx{options};
  EXPECT_EQ(ctx.sim_threads(), sim_threads);

  const harness::Experiment* fig3 = harness::Registry::global().find("fig3_slack_sweep");
  if (fig3 == nullptr) return {};
  fig3->run(ctx);
  return read_file(dir / "fig3_slack_sweep.csv");
}

TEST(ParDesDeterminism, Fig3GoldenHashHoldsAtSimThreads128) {
  for (const int sim_threads : {1, 2, 8}) {
    const std::string bytes = run_fig3_csv_with_sim_threads(sim_threads);
    ASSERT_FALSE(bytes.empty()) << "sim_threads=" << sim_threads;
    EXPECT_EQ(bytes.size(), kFig3GoldenBytes) << "sim_threads=" << sim_threads;
    EXPECT_EQ(fnv1a64(bytes), kFig3GoldenFnv1a) << "sim_threads=" << sim_threads;
  }
}

TEST(ParDesDeterminism, RowCosmoflowIsIdenticalAtSimThreads128) {
  apps::RowCosmoflowConfig config;
  config.gpus = 32;  // four chassis partitions: ring edges cross partitions
  config.steps = 2;

  config.sim_threads = 1;
  const apps::RowCosmoflowResult reference = apps::run_cosmoflow_row(config);
  ASSERT_GT(reference.events, 0u);
  ASSERT_GT(reference.messages, 0u);
  ASSERT_GT(reference.runtime.ns(), 0);

  for (const int sim_threads : {2, 8}) {
    config.sim_threads = sim_threads;
    const apps::RowCosmoflowResult run = apps::run_cosmoflow_row(config);
    EXPECT_EQ(run.digest, reference.digest) << "sim_threads=" << sim_threads;
    EXPECT_EQ(run.runtime.ns(), reference.runtime.ns()) << "sim_threads=" << sim_threads;
    EXPECT_EQ(run.events, reference.events) << "sim_threads=" << sim_threads;
    EXPECT_EQ(run.messages, reference.messages) << "sim_threads=" << sim_threads;
  }
}

// The env override mirrors the flag: RSD_SIM_THREADS drives the engine
// width when the config leaves sim_threads at 0.
TEST(ParDesDeterminism, EnvOverrideMatchesExplicitWidth) {
  apps::RowCosmoflowConfig config;
  config.gpus = 4;
  config.steps = 1;

  config.sim_threads = 1;
  const apps::RowCosmoflowResult reference = apps::run_cosmoflow_row(config);

  const ScopedEnv env{"RSD_SIM_THREADS", "3"};
  ASSERT_EQ(exec::default_sim_thread_count(), 3);
  config.sim_threads = 0;  // defer to the env
  const apps::RowCosmoflowResult run = apps::run_cosmoflow_row(config);
  EXPECT_EQ(run.digest, reference.digest);
  EXPECT_EQ(run.runtime.ns(), reference.runtime.ns());
}

// The exported simulated-domain trace — device slices, per-link usage
// counters, and the engine's per-partition epoch timelines — is JSON-
// byte-identical at any engine width: every event carries an explicit
// sim::Scheduler timestamp and the flush order is a pure function of the
// simulation, never of which OS thread ran a partition.
TEST(ParDesDeterminism, SimulatedTraceJsonIsByteIdenticalAtSimThreads128) {
  apps::RowCosmoflowConfig config;
  config.gpus = 32;  // four chassis partitions: ring edges cross partitions
  config.steps = 2;

  auto traced_json = [&config](int sim_threads) {
    config.sim_threads = sim_threads;
    auto& tracer = obs::Tracer::instance();
    tracer.enable();  // resets rings and sim-id allocation: a fresh timeline
    const apps::RowCosmoflowResult run = apps::run_cosmoflow_row(config);
    EXPECT_GT(run.events, 0u) << "sim_threads=" << sim_threads;
    const auto snapshot = tracer.snapshot();
    tracer.disable();
    return obs::chrome_trace_json(obs::simulated_slice(snapshot));
  };

  const std::string reference = traced_json(1);
  ASSERT_FALSE(reference.empty());
  // The engine's epoch timelines must actually be in the export, not
  // vacuously absent.
  EXPECT_NE(reference.find("epoch.executed"), std::string::npos);
  for (const int sim_threads : {2, 8}) {
    const std::string run = traced_json(sim_threads);
    EXPECT_EQ(run.size(), reference.size()) << "sim_threads=" << sim_threads;
    EXPECT_EQ(run, reference) << "sim_threads=" << sim_threads;
  }
}

// Stress: randomizing worker wakeup/claim order (seeded jitter in the
// team's claim loop) must not change the result either — the merge order
// is decided by (time, src, seq), never by which OS thread got there
// first.
TEST(ParDesDeterminism, ClaimJitterDoesNotMoveTheDigest) {
  apps::RowCosmoflowConfig config;
  config.gpus = 32;  // four chassis partitions: ring edges cross partitions
  config.steps = 2;
  config.sim_threads = 4;

  config.jitter_seed = 0;
  const apps::RowCosmoflowResult reference = apps::run_cosmoflow_row(config);

  for (const std::uint64_t seed : {0x1ULL, 0xdecafULL, 0x9e3779b97f4a7c15ULL}) {
    config.jitter_seed = seed;
    const apps::RowCosmoflowResult run = apps::run_cosmoflow_row(config);
    EXPECT_EQ(run.digest, reference.digest) << "seed=" << seed;
    EXPECT_EQ(run.runtime.ns(), reference.runtime.ns()) << "seed=" << seed;
    EXPECT_EQ(run.events, reference.events) << "seed=" << seed;
  }
}

}  // namespace

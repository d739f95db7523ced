#include "proxy/sweep_cache.hpp"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "core/csv.hpp"
#include "exec/pool.hpp"
#include "obs/tracer.hpp"

namespace rsd::proxy {
namespace {

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

TEST(SweepCache, MemoizesTheSweep) {
  exec::Pool pool{2};
  const ProxyRunner runner;
  const SweepConfig cfg = small_config();

  SweepCache cache;
  const auto fresh = cache.get_or_run(runner, cfg, pool);
  EXPECT_FALSE(fresh.empty());
  EXPECT_EQ(to_csv(fresh), to_csv(run_slack_sweep(runner, cfg, pool)));

  EXPECT_EQ(to_csv(cache.get_or_run(runner, cfg, pool)), to_csv(fresh));
  EXPECT_EQ(cache.sweeps_computed(), 1u);
  EXPECT_EQ(cache.memory_hits(), 1u);
}

TEST(SweepCache, AnyInputChangeComputesItsOwnSurface) {
  exec::Pool pool{2};
  const ProxyRunner base;
  const SweepConfig cfg = small_config();

  SweepCache cache;
  const auto first = cache.get_or_run(base, cfg, pool);
  EXPECT_EQ(cache.sweeps_computed(), 1u);

  SweepConfig denser = cfg;
  denser.matrix_sizes.push_back(1 << 13);
  (void)cache.get_or_run(base, denser, pool);
  EXPECT_EQ(cache.sweeps_computed(), 2u) << "grid";

  SweepConfig slower = cfg;
  slower.target_compute = 200_ms;
  (void)cache.get_or_run(base, slower, pool);
  EXPECT_EQ(cache.sweeps_computed(), 3u) << "target_compute";

  gpu::DeviceParams device;
  device.matmul_tflops *= 2.0;
  (void)cache.get_or_run(ProxyRunner{device, base.link_params()}, cfg, pool);
  EXPECT_EQ(cache.sweeps_computed(), 4u) << "device calibration";

  interconnect::LinkParams link = base.link_params();
  link.latency += 1_us;
  (void)cache.get_or_run(ProxyRunner{base.device_params(), link}, cfg, pool);
  EXPECT_EQ(cache.sweeps_computed(), 5u) << "link latency";

  // The first surface is still served from memory.
  EXPECT_EQ(cache.memory_hits(), 0u);
  EXPECT_EQ(to_csv(cache.get_or_run(base, cfg, pool)), to_csv(first));
  EXPECT_EQ(cache.sweeps_computed(), 5u);
  EXPECT_EQ(cache.memory_hits(), 1u);
}

TEST(SweepCache, SurfaceBuildStaysOffTheTimeline) {
  // A hit puts no simulation on the timeline, so the sweep behind a miss
  // must not either; tracing resumes for the miss's own instant.
  exec::Pool pool{2};
  obs::Tracer& tracer = obs::Tracer::instance();
  tracer.enable();
  SweepCache cache;
  (void)cache.get_or_run(ProxyRunner{}, small_config(), pool);
  EXPECT_TRUE(obs::Tracer::enabled());
  const obs::Tracer::Snapshot snapshot = tracer.snapshot();
  tracer.disable();

  int sim_events = 0;
  bool computed_instant = false;
  for (const obs::Event& e : snapshot.events) {
    if (e.sim_id != obs::kWallClock) ++sim_events;
    if (e.name == "sweep_cache.sweep_computed") computed_instant = true;
  }
  EXPECT_EQ(sim_events, 0);
  EXPECT_TRUE(computed_instant);
}

}  // namespace
}  // namespace rsd::proxy

// The closed loop of the observability design (ISSUE 3 acceptance): run a
// fig3-style proxy simulation with the obs tracer on, rebuild an NSys-style
// ops CSV from the simulator's *own emitted timeline*, re-import it through
// `trace::import`, and push it through the paper's Eq. 1–3 cross-analysis
// model. The prediction must match the penalty the simulator actually
// exhibits within the model's established validation band (Section IV-D:
// single-thread lower bound within 0.005 of measured).
#include <gtest/gtest.h>

#include <cmath>
#include <sstream>

#include "model/slack_model.hpp"
#include "obs/tracer.hpp"
#include "proxy/proxy.hpp"
#include "trace/import.hpp"
#include "trace/timeline.hpp"
#include "wl/program.hpp"
#include "wl/replay.hpp"

namespace {

using namespace rsd;
using namespace rsd::proxy;

TEST(ObsRoundtrip, TimelineRebuildsTheDirectTrace) {
  const ProxyRunner runner;
  ProxyConfig cfg;
  cfg.matrix_n = 1 << 11;
  cfg.threads = 1;
  cfg.capture_trace = true;

  auto& tracer = obs::Tracer::instance();
  tracer.enable();
  const ProxyResult baseline = runner.run(cfg);
  const auto snapshot = tracer.snapshot();
  tracer.disable();
  ASSERT_TRUE(baseline.fits_memory);
  ASSERT_TRUE(baseline.trace.has_value());

  // One traced simulation per device; pick the one matching the run by op
  // count (the run's calibration pass uses a separate device).
  const auto sim_ids = trace::timeline_sim_ids(snapshot);
  ASSERT_FALSE(sim_ids.empty());
  trace::Trace rebuilt;
  for (const std::int32_t id : sim_ids) {
    trace::Trace t = trace::from_timeline(snapshot, id);
    if (t.ops().size() == baseline.trace->ops().size()) {
      rebuilt = std::move(t);
      break;
    }
  }
  ASSERT_EQ(rebuilt.ops().size(), baseline.trace->ops().size());

  // The rebuilt ops are the direct sink's records, field for field.
  for (std::size_t i = 0; i < rebuilt.ops().size(); ++i) {
    const gpu::OpRecord& a = rebuilt.ops()[i];
    const gpu::OpRecord& b = baseline.trace->ops()[i];
    EXPECT_EQ(a.kind, b.kind);
    EXPECT_EQ(a.name, b.name);
    EXPECT_EQ(a.context_id, b.context_id);
    EXPECT_EQ(a.submit.ns(), b.submit.ns());
    EXPECT_EQ(a.start.ns(), b.start.ns());
    EXPECT_EQ(a.end.ns(), b.end.ns());
    EXPECT_EQ(a.bytes, b.bytes);
  }
  EXPECT_EQ(rebuilt.apis().size(), baseline.trace->apis().size());
}

/// One lane of copies and kernels: a simulation of a few hundred events.
wl::Program small_program() {
  wl::Program program;
  wl::Lane& lane = program.lanes.emplace_back();
  const std::int32_t buffer = lane.add_buffer(kMiB);
  for (int i = 0; i < 8; ++i) {
    lane.h2d(buffer);
    lane.kernel(NameRef{"k"}, duration::microseconds(40.0 + i));
    lane.d2h(buffer);
  }
  return program;
}

TEST(ObsRoundtrip, OverflowedRingsExportOnlyWholeSimulations) {
  const wl::ReplayEngine engine{wl::NodeParams{}};
  const wl::Program program = small_program();
  wl::ReplayOptions options;
  options.capture_trace = true;
  auto& tracer = obs::Tracer::instance();

  // Size the ring from one traced run: room for one simulation and a half.
  tracer.enable(std::size_t{1} << 12);
  (void)engine.run(program, options);
  const auto alone = tracer.snapshot();
  ASSERT_EQ(alone.dropped, 0u);
  const std::size_t per_run = alone.events.size();
  ASSERT_GT(per_run, 0u);

  tracer.enable(per_run + per_run / 2);
  (void)engine.run(program, options);
  const wl::ReplayResult second = engine.run(program, options);
  const auto snapshot = tracer.snapshot();
  tracer.disable();

  // The first simulation lost its start; only the second is whole, and its
  // export is what its own recorder captured.
  ASSERT_GT(snapshot.dropped, 0u);
  const auto sim_ids = trace::timeline_sim_ids(snapshot);
  ASSERT_EQ(sim_ids.size(), 1u);
  EXPECT_GT(sim_ids.front(), snapshot.max_dropped_sim_id);
  EXPECT_EQ(trace::from_timeline(snapshot).ops_to_csv(), second.trace.ops_to_csv());

  // Rings too small for any whole simulation leave nothing to export.
  tracer.enable(per_run / 2);
  (void)engine.run(program, options);
  const auto starved = tracer.snapshot();
  tracer.disable();
  EXPECT_TRUE(trace::timeline_sim_ids(starved).empty());
  EXPECT_GE(starved.max_dropped_sim_id, 0);
}

TEST(ObsRoundtrip, EmittedTracePredictsSimulatedPenaltyWithinBand) {
  const ProxyRunner runner;

  // Small single-thread response surface bracketing the test point.
  SweepConfig sweep_cfg;
  sweep_cfg.matrix_sizes = {1 << 9, 1 << 11, 1 << 13};
  sweep_cfg.thread_counts = {1};
  sweep_cfg.slacks = {SimDuration::zero(), duration::microseconds(100.0)};
  const auto sweep = run_slack_sweep(runner, sweep_cfg);
  const model::SlackModel slack_model{model::ResponseSurface::from_sweep(sweep)};

  // Traced baseline run at the paper's validated single-thread point.
  ProxyConfig cfg;
  cfg.matrix_n = 1 << 11;
  cfg.threads = 1;
  cfg.capture_trace = true;
  auto& tracer = obs::Tracer::instance();
  tracer.enable();
  const ProxyResult baseline = runner.run(cfg);
  const auto snapshot = tracer.snapshot();
  tracer.disable();
  ASSERT_TRUE(baseline.fits_memory);

  // Measured penalty: same config under 100 us slack, Eq. 1 applied.
  cfg.capture_trace = false;
  cfg.slack = duration::microseconds(100.0);
  const ProxyResult slacked = runner.run(cfg);
  const double measured = slacked.no_slack_time / baseline.no_slack_time - 1.0;

  // Closed loop: obs timeline -> NSys-style CSV -> trace::import -> Eq 1-3.
  const auto sim_ids = trace::timeline_sim_ids(snapshot);
  ASSERT_FALSE(sim_ids.empty());
  trace::Trace emitted;
  for (const std::int32_t id : sim_ids) {
    trace::Trace t = trace::from_timeline(snapshot, id);
    if (t.ops().size() == baseline.trace->ops().size()) {
      emitted = std::move(t);
      break;
    }
  }
  ASSERT_FALSE(emitted.ops().empty());
  std::istringstream csv{emitted.ops_to_csv()};
  const trace::Trace imported = trace::parse_ops_csv(csv);
  ASSERT_EQ(imported.ops().size(), emitted.ops().size());

  const auto prediction = slack_model.predict(imported, 1, cfg.slack);

  // The simulator's own emitted trace predicts the penalty the simulator
  // exhibits, within the Section IV-D single-thread validation band.
  EXPECT_LT(std::abs(prediction.total.lower - measured), 0.005);
  EXPECT_GE(prediction.total.upper + 1e-12, prediction.total.lower);

  // And the emitted-timeline route agrees with the direct-sink route pushed
  // through the same NSys-style export: the observability layer is a
  // faithful witness, not a second model.
  EXPECT_EQ(emitted.ops_to_csv(), baseline.trace->ops_to_csv());
  std::istringstream direct_csv{baseline.trace->ops_to_csv()};
  const auto direct = slack_model.predict(trace::parse_ops_csv(direct_csv), 1, cfg.slack);
  EXPECT_NEAR(prediction.total.lower, direct.total.lower, 1e-12);
  EXPECT_NEAR(prediction.total.upper, direct.total.upper, 1e-12);
}

}  // namespace

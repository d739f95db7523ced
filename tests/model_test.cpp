#include "model/slack_model.hpp"

#include <gtest/gtest.h>

#include <limits>
#include <string>

#include "core/error.hpp"
#include "model/response_surface.hpp"
#include "proxy/proxy.hpp"

namespace rsd::model {
namespace {

using namespace rsd::literals;

/// A small synthetic sweep: two matrix sizes, one thread count, three
/// slack samples each. Penalties shrink with matrix size and grow with
/// slack, like the real surface.
std::vector<proxy::SweepPoint> synthetic_sweep() {
  std::vector<proxy::SweepPoint> sweep;
  struct Spec {
    std::int64_t n;
    double kernel_us;
    double mib;
  };
  const std::vector<Spec> sizes{{512, 10.0, 1.0}, {8192, 10000.0, 256.0}};
  const std::vector<std::pair<SimDuration, double>> small_curve{
      {SimDuration::zero(), 1.0}, {10_us, 1.10}, {1_ms, 2.0}};
  const std::vector<std::pair<SimDuration, double>> big_curve{
      {SimDuration::zero(), 1.0}, {10_us, 1.01}, {1_ms, 1.05}};
  for (const auto& spec : sizes) {
    const auto& curve = spec.n == 512 ? small_curve : big_curve;
    for (const auto& [slack, norm] : curve) {
      proxy::SweepPoint p;
      p.matrix_n = spec.n;
      p.threads = 1;
      p.slack = slack;
      p.normalized_runtime = norm;
      p.result.matrix_n = spec.n;
      p.result.kernel_duration = duration::microseconds(spec.kernel_us);
      p.result.matrix_bytes = static_cast<Bytes>(spec.mib * static_cast<double>(kMiB));
      sweep.push_back(p);
    }
  }
  return sweep;
}

TEST(ResponseSurface, ExactLookup) {
  const auto surface = ResponseSurface::from_sweep(synthetic_sweep());
  EXPECT_NEAR(surface.penalty(512, 1, 10_us), 0.10, 1e-12);
  EXPECT_NEAR(surface.penalty(512, 1, 1_ms), 1.0, 1e-12);
  EXPECT_NEAR(surface.penalty(8192, 1, 10_us), 0.01, 1e-12);
}

TEST(ResponseSurface, PointsSortedWithCharacteristics) {
  const auto surface = ResponseSurface::from_sweep(synthetic_sweep());
  ASSERT_EQ(surface.points().size(), 2u);
  EXPECT_EQ(surface.points()[0].matrix_n, 512);
  EXPECT_DOUBLE_EQ(surface.points()[0].kernel_us, 10.0);
  EXPECT_DOUBLE_EQ(surface.points()[0].transfer_mib, 1.0);
  EXPECT_EQ(surface.points()[1].matrix_n, 8192);
  EXPECT_EQ(surface.matrix_sizes(), (std::vector<std::int64_t>{512, 8192}));
}

TEST(ResponseSurface, LogInterpolationBetweenSlacks) {
  const auto surface = ResponseSurface::from_sweep(synthetic_sweep());
  // Between 10 us (0.10) and 1 ms (1.0), log-midpoint is 100 us -> 0.55.
  EXPECT_NEAR(surface.penalty(512, 1, 100_us), 0.55, 1e-9);
}

TEST(ResponseSurface, ClampsOutsideSampledRange) {
  const auto surface = ResponseSurface::from_sweep(synthetic_sweep());
  EXPECT_NEAR(surface.penalty(512, 1, 10_ms), 1.0, 1e-12);   // above max
  EXPECT_NEAR(surface.penalty(512, 1, SimDuration::zero()), 0.0, 1e-12);
}

TEST(ResponseSurface, NearestThreadFallback) {
  const auto surface = ResponseSurface::from_sweep(synthetic_sweep());
  // Only 1-thread data exists; asking for 8 threads falls back to it.
  EXPECT_NEAR(surface.penalty(512, 8, 10_us), 0.10, 1e-12);
}

TEST(ResponseSurface, UnknownSizeThrows) {
  const auto surface = ResponseSurface::from_sweep(synthetic_sweep());
  EXPECT_THROW((void)surface.penalty(1024, 1, 10_us), Error);
}

TEST(ResponseSurface, EmptySurfaceThrows) {
  const ResponseSurface surface = ResponseSurface::from_sweep({});
  EXPECT_TRUE(surface.empty());
  EXPECT_THROW((void)surface.penalty(512, 1, 10_us), Error);
}

TEST(Equation3, RoundUpAndDownBounds) {
  const SlackModel model{ResponseSurface::from_sweep(synthetic_sweep())};
  // A kernel of 100 us sits between the 10 us (SP 0.10) and 10000 us
  // (SP 0.01) proxy points at 10 us slack: lower bound rounds up (0.01),
  // upper bound rounds down (0.10).
  const auto bounds = model.equation3({100.0}, true, 1, 10_us);
  EXPECT_NEAR(bounds.lower, 0.01, 1e-12);
  EXPECT_NEAR(bounds.upper, 0.10, 1e-12);
}

TEST(Equation3, ExactMatchCollapsesBounds) {
  const SlackModel model{ResponseSurface::from_sweep(synthetic_sweep())};
  const auto bounds = model.equation3({10.0}, true, 1, 10_us);
  EXPECT_NEAR(bounds.lower, 0.10, 1e-12);
  EXPECT_NEAR(bounds.upper, 0.10, 1e-12);
}

TEST(Equation3, OutOfRangeClampsToEndPoints) {
  const SlackModel model{ResponseSurface::from_sweep(synthetic_sweep())};
  // Below the smallest characteristic: both bounds use the smallest size.
  const auto below = model.equation3({1.0}, true, 1, 10_us);
  EXPECT_NEAR(below.lower, 0.10, 1e-12);
  EXPECT_NEAR(below.upper, 0.10, 1e-12);
  // Above the largest: both use the largest size.
  const auto above = model.equation3({1e6}, true, 1, 10_us);
  EXPECT_NEAR(above.lower, 0.01, 1e-12);
  EXPECT_NEAR(above.upper, 0.01, 1e-12);
}

TEST(Equation3, CountWeightedAverage) {
  const SlackModel model{ResponseSurface::from_sweep(synthetic_sweep())};
  // Three elements at the small point, one at the large point.
  const auto bounds = model.equation3({10.0, 10.0, 10.0, 10000.0}, true, 1, 10_us);
  EXPECT_NEAR(bounds.lower, (3 * 0.10 + 1 * 0.01) / 4.0, 1e-12);
  EXPECT_NEAR(bounds.upper, bounds.lower, 1e-12);
}

TEST(Equation3, AttributionCounts) {
  const SlackModel model{ResponseSurface::from_sweep(synthetic_sweep())};
  BinnedAttribution attr;
  (void)model.equation3({5.0, 100.0, 20000.0}, true, 1, 10_us, &attr);
  ASSERT_EQ(attr.matrix_sizes.size(), 2u);
  EXPECT_EQ(attr.total, 3u);
  // round-up: 5->512, 100->8192, 20000->8192.
  EXPECT_EQ(attr.round_up_counts[0], 1u);
  EXPECT_EQ(attr.round_up_counts[1], 2u);
  // round-down: 5->512 (clamp), 100->512, 20000->8192.
  EXPECT_EQ(attr.round_down_counts[0], 2u);
  EXPECT_EQ(attr.round_down_counts[1], 1u);
}

TEST(Equation3, EmptyValuesGiveZero) {
  const SlackModel model{ResponseSurface::from_sweep(synthetic_sweep())};
  const auto bounds = model.equation3({}, true, 1, 10_us);
  EXPECT_DOUBLE_EQ(bounds.lower, 0.0);
  EXPECT_DOUBLE_EQ(bounds.upper, 0.0);
}

TEST(PenaltyBounds, ContainsWithAndWithoutTolerance) {
  const PenaltyBounds bounds{.lower = 0.01, .upper = 0.05};
  EXPECT_TRUE(bounds.contains(0.01));
  EXPECT_TRUE(bounds.contains(0.03));
  EXPECT_TRUE(bounds.contains(0.05));
  EXPECT_FALSE(bounds.contains(0.0099));
  EXPECT_FALSE(bounds.contains(0.051));
  // Tolerance widens both ends symmetrically.
  EXPECT_TRUE(bounds.contains(0.0099, 0.001));
  EXPECT_TRUE(bounds.contains(0.0595, 0.01));
  EXPECT_FALSE(bounds.contains(0.07, 0.01));
  // Degenerate [0, 0] band (clamped predictions) admits only ~0.
  const PenaltyBounds zero{};
  EXPECT_TRUE(zero.contains(0.0));
  EXPECT_TRUE(zero.contains(0.005, 0.01));
  EXPECT_FALSE(zero.contains(0.02, 0.01));
}

TEST(Equation2, CombinesFractionsAndPenalties) {
  const SlackModel model{ResponseSurface::from_sweep(synthetic_sweep())};
  trace::Trace t;
  // One kernel 0..50us matching the small proxy point's 10us? Use exact
  // characteristic values so bounds collapse and the arithmetic is checkable.
  gpu::OpRecord k;
  k.kind = gpu::OpKind::kKernel;
  k.name = "k";
  k.start = SimTime::zero();
  k.end = SimTime{10'000};  // 10 us == small point's kernel duration
  t.add_op(k);
  gpu::OpRecord m;
  m.kind = gpu::OpKind::kMemcpyH2D;
  m.name = "c";
  m.start = SimTime{10'000};
  m.end = SimTime{20'000};
  m.bytes = kMiB;  // == small point's transfer size
  t.add_op(m);

  const auto pred = model.predict(t, 1, 10_us);
  // Span 20 us; kernel busy 10, memory busy 10 -> fractions 0.5 each.
  EXPECT_NEAR(pred.fractions.kernel, 0.5, 1e-9);
  EXPECT_NEAR(pred.fractions.memory, 0.5, 1e-9);
  EXPECT_NEAR(pred.kernel.lower, 0.10, 1e-12);
  EXPECT_NEAR(pred.memory.lower, 0.10, 1e-12);
  EXPECT_NEAR(pred.total.lower, 0.10, 1e-12);  // 0.5*0.1 + 0.5*0.1
  EXPECT_NEAR(pred.total.upper, 0.10, 1e-12);
}

// The surface snaps any thread count to its nearest sweep point, so
// predict() itself must refuse arguments no application can have.
TEST(Model, PredictRejectsGarbageArguments) {
  const SlackModel model{ResponseSurface::from_sweep(synthetic_sweep())};
  trace::Trace t;
  gpu::OpRecord k;
  k.kind = gpu::OpKind::kKernel;
  k.name = "k";
  k.end = SimTime{10'000};
  t.add_op(k);

  const auto expect_rejected = [&](int parallelism, SimDuration slack, const char* names) {
    try {
      (void)model.predict(t, parallelism, slack);
      ADD_FAILURE() << "predicted at parallelism " << parallelism << ", slack " << slack.ns();
    } catch (const Error& e) {
      const std::string what{e.what()};
      EXPECT_EQ(e.code(), ErrorCode::kInvalidArgument) << what;
      EXPECT_NE(what.find(names), std::string::npos) << what;
    }
  };
  for (const int parallelism : {0, -1, std::numeric_limits<int>::min()}) {
    expect_rejected(parallelism, 10_us, "parallelism");
  }
  expect_rejected(1, SimDuration{-1}, "negative slack");
  expect_rejected(4, SimDuration::zero() - 10_us, "negative slack");
  // Parallelism is checked first.
  expect_rejected(0, SimDuration::zero() - 10_us, "parallelism");

  EXPECT_NO_THROW((void)model.predict(t, 1, SimDuration::zero()));
  EXPECT_NO_THROW((void)model.predict(t, std::numeric_limits<int>::max(), 1_ms));
}

TEST(Model, SelfValidationOnRealProxyTrace) {
  // Paper IV-D: predicting the proxy's own penalty from its trace should
  // give a lower bound close to the measured value and an upper bound that
  // is pessimistic (>= lower).
  const proxy::ProxyRunner runner;
  proxy::SweepConfig sweep_cfg;
  sweep_cfg.matrix_sizes = {1 << 9, 1 << 11, 1 << 13};
  sweep_cfg.thread_counts = {1};
  sweep_cfg.slacks = {SimDuration::zero(), 10_us, 100_us, 1_ms, 10_ms};
  sweep_cfg.target_compute = 200_ms;
  const auto sweep = run_slack_sweep(runner, sweep_cfg);
  const SlackModel model{ResponseSurface::from_sweep(sweep)};

  // Profile the 2^11 proxy at zero slack.
  proxy::ProxyConfig cfg;
  cfg.matrix_n = 1 << 11;
  cfg.threads = 1;
  cfg.max_iterations = 20;
  cfg.capture_trace = true;
  const auto baseline = runner.run(cfg);
  ASSERT_TRUE(baseline.trace.has_value());

  // Predict at 1 ms slack and compare against the measured penalty.
  const auto pred = model.predict(*baseline.trace, 1, 1_ms);
  cfg.capture_trace = false;
  cfg.slack = 1_ms;
  const auto measured_run = runner.run(cfg);
  const double measured = measured_run.no_slack_time / baseline.no_slack_time - 1.0;

  // The proxy's own kernels/transfers match a surface point exactly, so
  // lower == upper on the Eq.3 side; Eq.2's runtime fractions make the
  // prediction a slight underestimate. Accept the paper's 0.005-ish band
  // scaled to our penalty magnitude.
  EXPECT_LE(pred.total.lower, pred.total.upper + 1e-12);
  EXPECT_NEAR(pred.total.lower, measured, 0.02);
  EXPECT_GT(pred.total.lower, 0.0);
}

}  // namespace
}  // namespace rsd::model

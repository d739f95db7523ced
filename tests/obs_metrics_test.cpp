// Metrics registry unit tests: counter/gauge/histogram semantics, local
// tally merging, snapshot deltas, and the manifest JSON serialization.
#include <gtest/gtest.h>

#include <string>

#include "obs/metrics.hpp"

namespace {

using namespace rsd::obs;

TEST(Metrics, CounterAccumulates) {
  Counter c;
  EXPECT_EQ(c.value(), 0);
  c.add();
  c.add(41);
  EXPECT_EQ(c.value(), 42);
}

TEST(Metrics, GaugeIsLastWriteWins) {
  Gauge g;
  g.set(1.5);
  g.set(-2.5);
  EXPECT_DOUBLE_EQ(g.value(), -2.5);
}

TEST(Metrics, HistogramBucketIndexIsBitWidth) {
  EXPECT_EQ(HistogramData::bucket_index(-5), 0);
  EXPECT_EQ(HistogramData::bucket_index(0), 0);
  EXPECT_EQ(HistogramData::bucket_index(1), 1);
  EXPECT_EQ(HistogramData::bucket_index(2), 2);
  EXPECT_EQ(HistogramData::bucket_index(3), 2);
  EXPECT_EQ(HistogramData::bucket_index(4), 3);
  // Saturates at the last bucket.
  EXPECT_EQ(HistogramData::bucket_index(std::int64_t{1} << 62), kHistogramBuckets - 1);
}

TEST(Metrics, HistogramObserveAndMergeAgree) {
  HistogramData local;
  local.observe(1);
  local.observe(10);
  local.observe(100);
  EXPECT_EQ(local.count, 3);
  EXPECT_EQ(local.sum, 111);
  EXPECT_EQ(local.min, 1);
  EXPECT_EQ(local.max, 100);
  EXPECT_DOUBLE_EQ(local.mean(), 37.0);

  Histogram shared;
  shared.observe(1000);
  shared.merge(local);
  const HistogramData d = shared.data();
  EXPECT_EQ(d.count, 4);
  EXPECT_EQ(d.sum, 1111);
  EXPECT_EQ(d.min, 1);
  EXPECT_EQ(d.max, 1000);
}

TEST(Metrics, RegistrySnapshotIsSortedAndFindable) {
  Registry reg;
  reg.counter("z.last").add(3);
  reg.counter("a.first").add(1);
  reg.gauge("m.mid").set(0.5);
  reg.histogram("h.hist").observe(8);

  const MetricsSnapshot snap = reg.snapshot();
  ASSERT_EQ(snap.samples.size(), 4u);
  for (std::size_t i = 1; i < snap.samples.size(); ++i) {
    EXPECT_LT(snap.samples[i - 1].name, snap.samples[i].name);
  }
  const MetricSample* c = snap.find("a.first");
  ASSERT_NE(c, nullptr);
  EXPECT_EQ(c->kind, MetricKind::kCounter);
  EXPECT_EQ(c->count, 1);
  const MetricSample* h = snap.find("h.hist");
  ASSERT_NE(h, nullptr);
  EXPECT_EQ(h->kind, MetricKind::kHistogram);
  EXPECT_EQ(h->count, 1);
  EXPECT_EQ(h->sum, 8);
  EXPECT_EQ(snap.find("missing"), nullptr);
}

TEST(Metrics, DeltaAttributesOnlyIntervalActivity) {
  Registry reg;
  reg.counter("runs").add(10);
  reg.histogram("ns").observe(100);
  const MetricsSnapshot before = reg.snapshot();

  reg.counter("runs").add(5);
  reg.histogram("ns").observe(300);
  reg.counter("born.later").add(2);
  reg.gauge("util").set(0.75);
  const MetricsSnapshot after = reg.snapshot();

  const MetricsSnapshot delta = metrics_delta(before, after);
  EXPECT_EQ(delta.find("runs")->count, 5);
  EXPECT_EQ(delta.find("ns")->count, 1);
  EXPECT_EQ(delta.find("ns")->sum, 300);
  EXPECT_DOUBLE_EQ(delta.find("ns")->value, 300.0);
  // A metric born inside the interval keeps its full value.
  EXPECT_EQ(delta.find("born.later")->count, 2);
  // Gauges report the latest value.
  EXPECT_DOUBLE_EQ(delta.find("util")->value, 0.75);
}

TEST(Metrics, DeltaHistogramExtremesComeFromTheInterval) {
  Registry reg;
  reg.histogram("depth").observe(7);
  const MetricsSnapshot before = reg.snapshot();
  for (int i = 0; i < 3; ++i) reg.histogram("depth").observe(0);
  const MetricsSnapshot after = reg.snapshot();

  // The registry's extremes span both intervals; the delta's stay inside
  // its own buckets, so an interval of zeros reports max 0, not 7.
  EXPECT_EQ(after.find("depth")->max, 7);
  const MetricsSnapshot delta = metrics_delta(before, after);
  const MetricSample* d = delta.find("depth");
  ASSERT_NE(d, nullptr);
  EXPECT_EQ(d->count, 3);
  EXPECT_EQ(d->min, 0);
  EXPECT_EQ(d->max, 0);

  // Values 5 and 6 fill bucket [4, 8): the delta's extremes are that
  // bucket's edges, 4 and 7, not the registry's 0 and 100.
  reg.histogram("depth").observe(100);
  const MetricsSnapshot mid = reg.snapshot();
  reg.histogram("depth").observe(5);
  reg.histogram("depth").observe(6);
  const MetricsSnapshot last = metrics_delta(mid, reg.snapshot());
  EXPECT_EQ(last.find("depth")->min, 4);
  EXPECT_EQ(last.find("depth")->max, 7);
  EXPECT_LE(static_cast<double>(last.find("depth")->min), last.find("depth")->value);
  EXPECT_LE(last.find("depth")->value, static_cast<double>(last.find("depth")->max));
}

TEST(Metrics, GaugeAppearsOnlyInIntervalsThatSetIt) {
  Registry reg;
  reg.gauge("exec.width").set(4.0);
  const MetricsSnapshot first = reg.snapshot();
  const MetricsSnapshot second = reg.snapshot();
  EXPECT_EQ(first.find("exec.width")->count, 1);

  // Nothing set it between the two snapshots: the delta carries a zero
  // set count and its JSON leaves the gauge out.
  const MetricsSnapshot idle = metrics_delta(first, second);
  EXPECT_EQ(idle.find("exec.width")->count, 0);
  EXPECT_EQ(metrics_json(idle).find("exec.width"), std::string::npos);

  reg.gauge("exec.width").set(2.0);
  const MetricsSnapshot busy = metrics_delta(second, reg.snapshot());
  EXPECT_EQ(busy.find("exec.width")->count, 1);
  EXPECT_NE(metrics_json(busy).find("\"exec.width\": 2"), std::string::npos);
}

TEST(Metrics, HistogramQuantilesInterpolateWithinBuckets) {
  Registry reg;
  auto& h = reg.histogram("lat");
  // 100 observations of 1..100: p50 ~ 50, p90 ~ 90, p99 ~ 99. The
  // power-of-two buckets limit resolution, so the check is loose but
  // must stay monotone and inside [min, max].
  for (int v = 1; v <= 100; ++v) h.observe(v);
  const MetricsSnapshot snap = reg.snapshot();
  const MetricSample* s = snap.find("lat");
  ASSERT_NE(s, nullptr);

  const double p50 = histogram_quantile(*s, 0.50);
  const double p90 = histogram_quantile(*s, 0.90);
  const double p99 = histogram_quantile(*s, 0.99);
  EXPECT_GE(p50, 1.0);
  EXPECT_LE(p99, 100.0);
  EXPECT_LE(p50, p90);
  EXPECT_LE(p90, p99);
  // Bucket [64, 128) clamps to max+1 and interpolates: p99 is near the top.
  EXPECT_GT(p99, 64.0);
  // p50 lands in bucket [32, 64).
  EXPECT_GE(p50, 32.0);
  EXPECT_LT(p50, 64.0);

  // Extremes stay inside the observed range (midpoint interpolation
  // keeps q=0 near, not exactly at, the minimum).
  EXPECT_GE(histogram_quantile(*s, 0.0), 1.0);
  EXPECT_LT(histogram_quantile(*s, 0.0), 2.0);
  EXPECT_LE(histogram_quantile(*s, 1.0), 100.0);
}

TEST(Metrics, HistogramQuantileDegenerateCases) {
  MetricSample none;
  none.kind = MetricKind::kHistogram;
  EXPECT_DOUBLE_EQ(histogram_quantile(none, 0.5), 0.0);

  Registry reg;
  reg.histogram("one").observe(42);
  const MetricsSnapshot snap = reg.snapshot();
  const MetricSample* s = snap.find("one");
  ASSERT_NE(s, nullptr);
  // A single observation answers every quantile with itself.
  EXPECT_DOUBLE_EQ(histogram_quantile(*s, 0.0), 42.0);
  EXPECT_DOUBLE_EQ(histogram_quantile(*s, 0.5), 42.0);
  EXPECT_DOUBLE_EQ(histogram_quantile(*s, 1.0), 42.0);

  // Counters don't have quantiles.
  reg.counter("c").add(7);
  const MetricsSnapshot snap2 = reg.snapshot();
  EXPECT_DOUBLE_EQ(histogram_quantile(*snap2.find("c"), 0.5), 0.0);
}

TEST(Metrics, JsonCarriesHistogramQuantiles) {
  Registry reg;
  for (int v = 1; v <= 16; ++v) reg.histogram("lat").observe(v);
  const std::string json = metrics_json(reg.snapshot());
  EXPECT_NE(json.find("\"p50\":"), std::string::npos);
  EXPECT_NE(json.find("\"p90\":"), std::string::npos);
  EXPECT_NE(json.find("\"p99\":"), std::string::npos);
}

TEST(Metrics, JsonSkipsZeroCountSamplesAndEscapesNames) {
  Registry reg;
  reg.counter("active").add(3);
  (void)reg.counter("idle");  // Never incremented: must not appear.
  reg.gauge("util").set(0.5);
  reg.histogram("lat").observe(7);

  const std::string json = metrics_json(reg.snapshot());
  EXPECT_NE(json.find("\"active\": 3"), std::string::npos);
  EXPECT_EQ(json.find("idle"), std::string::npos);
  EXPECT_NE(json.find("\"util\": 0.5"), std::string::npos);
  EXPECT_NE(json.find("\"lat\": {\"count\": 1, \"sum\": 7"), std::string::npos);
  EXPECT_EQ(json.front(), '{');
  EXPECT_EQ(json.back(), '}');
}

TEST(Metrics, EmptySnapshotSerializesToEmptyObject) {
  EXPECT_EQ(metrics_json(MetricsSnapshot{}), "{}");
}

}  // namespace

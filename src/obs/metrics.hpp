// rsd::obs metrics — a typed metrics registry (counters, gauges,
// histograms) snapshotted per experiment into the run manifest.
//
// Hot paths avoid per-event atomics: subsystems accumulate plain local
// tallies (`HistogramData`, engine counters) and flush them into the
// global registry at natural quiesce points (device destruction, batch
// completion, run end). The registry itself is lock-free on the metric
// objects (atomics) and mutex-protected only for name lookup, so flushes
// from pool workers are TSan-clean.
//
// Snapshots are value types; `metrics_delta(before, after)` attributes an
// interval's activity to one experiment (counters, gauge set counts and
// histogram count/sum/buckets subtract; a histogram's min/max are bounded
// by the interval's own buckets; gauges report their latest value).
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <functional>
#include <limits>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

namespace rsd::obs {

inline constexpr int kHistogramBuckets = 32;

/// Monotonic event/total counter.
class Counter {
 public:
  void add(std::int64_t delta = 1) { v_.fetch_add(delta, std::memory_order_relaxed); }
  [[nodiscard]] std::int64_t value() const { return v_.load(std::memory_order_relaxed); }

 private:
  std::atomic<std::int64_t> v_{0};
};

/// Last-write-wins instantaneous value, plus how often it was set (so an
/// interval that never set it can leave it out).
class Gauge {
 public:
  void set(double v) {
    v_.store(v, std::memory_order_relaxed);
    sets_.fetch_add(1, std::memory_order_relaxed);
  }
  [[nodiscard]] double value() const { return v_.load(std::memory_order_relaxed); }
  [[nodiscard]] std::int64_t sets() const { return sets_.load(std::memory_order_relaxed); }

 private:
  std::atomic<double> v_{0.0};
  std::atomic<std::int64_t> sets_{0};
};

/// Plain (non-atomic) histogram tally: the accumulate-locally,
/// merge-at-quiesce half of the design. Bucket i holds values whose
/// bit-width is i (i.e. [2^(i-1), 2^i)); bucket 0 holds v <= 0.
struct HistogramData {
  std::int64_t count = 0;
  std::int64_t sum = 0;
  std::int64_t min = std::numeric_limits<std::int64_t>::max();
  std::int64_t max = std::numeric_limits<std::int64_t>::min();
  std::array<std::int64_t, kHistogramBuckets> buckets{};

  [[nodiscard]] static int bucket_index(std::int64_t v);
  void observe(std::int64_t v);
  [[nodiscard]] double mean() const {
    return count > 0 ? static_cast<double>(sum) / static_cast<double>(count) : 0.0;
  }
};

/// Shared histogram: atomic observation plus bulk merge of a local tally.
class Histogram {
 public:
  void observe(std::int64_t v);
  void merge(const HistogramData& d);
  [[nodiscard]] HistogramData data() const;

 private:
  std::atomic<std::int64_t> count_{0};
  std::atomic<std::int64_t> sum_{0};
  std::atomic<std::int64_t> min_{std::numeric_limits<std::int64_t>::max()};
  std::atomic<std::int64_t> max_{std::numeric_limits<std::int64_t>::min()};
  std::array<std::atomic<std::int64_t>, kHistogramBuckets> buckets_{};
};

enum class MetricKind : std::uint8_t { kCounter, kGauge, kHistogram };

struct MetricSample {
  std::string name;
  MetricKind kind = MetricKind::kCounter;
  std::int64_t count = 0;  ///< Counter value / gauge set count / histogram count.
  double value = 0.0;      ///< Gauge value / histogram mean.
  std::int64_t sum = 0;    ///< Histogram only.
  std::int64_t min = 0;    ///< Histogram only (0 when empty).
  std::int64_t max = 0;    ///< Histogram only (0 when empty).
  /// Histogram only: the power-of-two bucket counts (same layout as
  /// HistogramData::buckets), carried so quantiles survive the snapshot.
  std::array<std::int64_t, kHistogramBuckets> buckets{};
};

struct MetricsSnapshot {
  std::vector<MetricSample> samples;  ///< Sorted by name.

  [[nodiscard]] const MetricSample* find(std::string_view name) const;
};

/// Activity between two snapshots of the same registry. Counters, gauge
/// set counts and histogram count/sum/buckets subtract; gauges report the
/// `after` value. A histogram's min/max are the `after` extremes bounded
/// by the delta's lowest and highest non-empty buckets, so they describe
/// the interval (an interval that observed only zeros reports max 0).
/// Metrics born between the snapshots keep their full value.
[[nodiscard]] MetricsSnapshot metrics_delta(const MetricsSnapshot& before,
                                            const MetricsSnapshot& after);

/// Interpolated quantile (q in [0, 1]) of a histogram sample, estimated
/// from its power-of-two buckets. Uses the same (n-1)*q rank convention
/// as `stats::quantile_sorted`, locating the rank's bucket by cumulative
/// walk and interpolating linearly inside it; the result is clamped to
/// the sample's observed [min, max], so quantile estimates are monotone
/// in q and never leave the data's range. Returns 0 for empty or
/// non-histogram samples.
[[nodiscard]] double histogram_quantile(const MetricSample& sample, double q);

/// One-line JSON object: counters/gauges as numbers, histograms as
/// {"count","sum","mean","min","max","p50","p90","p99"}. Zero-count
/// samples (gauges never set) are skipped so an experiment's manifest
/// entry only names subsystems it exercised.
[[nodiscard]] std::string metrics_json(const MetricsSnapshot& snapshot);

class Registry {
 public:
  Registry() = default;
  Registry(const Registry&) = delete;
  Registry& operator=(const Registry&) = delete;

  /// Process-wide registry (what the manifest snapshots).
  [[nodiscard]] static Registry& global();

  /// Find-or-create by name. Finding an existing metric allocates
  /// nothing; only a new name is copied into the registry. Returned
  /// references live as long as the registry; hot callers may cache them.
  [[nodiscard]] Counter& counter(std::string_view name);
  [[nodiscard]] Gauge& gauge(std::string_view name);
  [[nodiscard]] Histogram& histogram(std::string_view name);

  [[nodiscard]] MetricsSnapshot snapshot() const;

 private:
  mutable std::mutex m_;
  std::map<std::string, std::unique_ptr<Counter>, std::less<>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>, std::less<>> gauges_;
  std::map<std::string, std::unique_ptr<Histogram>, std::less<>> histograms_;
};

}  // namespace rsd::obs

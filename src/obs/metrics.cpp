#include "obs/metrics.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdio>
#include <sstream>

#include "obs/tracer.hpp"  // json_escape

namespace rsd::obs {

namespace {

void atomic_min(std::atomic<std::int64_t>& slot, std::int64_t v) {
  std::int64_t cur = slot.load(std::memory_order_relaxed);
  while (v < cur && !slot.compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
  }
}

void atomic_max(std::atomic<std::int64_t>& slot, std::int64_t v) {
  std::int64_t cur = slot.load(std::memory_order_relaxed);
  while (v > cur && !slot.compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
  }
}

/// Find-or-create `name` in `metrics`; the key string is built only on
/// insert.
template <typename Metric>
Metric& find_or_create(std::map<std::string, std::unique_ptr<Metric>, std::less<>>& metrics,
                       std::string_view name) {
  auto it = metrics.find(name);
  if (it == metrics.end()) {
    it = metrics.emplace(std::string{name}, std::make_unique<Metric>()).first;
  }
  return *it->second;
}

std::string json_number(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.12g", v);
  return std::string{buf};
}

/// Narrows a histogram delta's min/max (the process-wide extremes) to the
/// value range of its lowest and highest non-empty buckets: bucket 0 holds
/// v <= 0, bucket i holds [2^(i-1), 2^i) and the top bucket is open-ended.
void bound_extremes(MetricSample& d) {
  if (d.count <= 0) {
    d.min = 0;
    d.max = 0;
    return;
  }
  int lo = 0;
  while (lo < kHistogramBuckets - 1 && d.buckets[static_cast<std::size_t>(lo)] == 0) ++lo;
  int hi = kHistogramBuckets - 1;
  while (hi > 0 && d.buckets[static_cast<std::size_t>(hi)] == 0) --hi;
  if (lo > 0) d.min = std::max(d.min, std::int64_t{1} << (lo - 1));
  if (hi < kHistogramBuckets - 1) d.max = std::min(d.max, (std::int64_t{1} << hi) - 1);
}

}  // namespace

int HistogramData::bucket_index(std::int64_t v) {
  if (v <= 0) return 0;
  const int width = std::bit_width(static_cast<std::uint64_t>(v));
  return std::min(width, kHistogramBuckets - 1);
}

void HistogramData::observe(std::int64_t v) {
  ++count;
  sum += v;
  min = std::min(min, v);
  max = std::max(max, v);
  ++buckets[static_cast<std::size_t>(bucket_index(v))];
}

void Histogram::observe(std::int64_t v) {
  count_.fetch_add(1, std::memory_order_relaxed);
  sum_.fetch_add(v, std::memory_order_relaxed);
  atomic_min(min_, v);
  atomic_max(max_, v);
  buckets_[static_cast<std::size_t>(HistogramData::bucket_index(v))].fetch_add(
      1, std::memory_order_relaxed);
}

void Histogram::merge(const HistogramData& d) {
  if (d.count == 0) return;
  count_.fetch_add(d.count, std::memory_order_relaxed);
  sum_.fetch_add(d.sum, std::memory_order_relaxed);
  atomic_min(min_, d.min);
  atomic_max(max_, d.max);
  for (int i = 0; i < kHistogramBuckets; ++i) {
    if (d.buckets[static_cast<std::size_t>(i)] != 0) {
      buckets_[static_cast<std::size_t>(i)].fetch_add(d.buckets[static_cast<std::size_t>(i)],
                                                      std::memory_order_relaxed);
    }
  }
}

HistogramData Histogram::data() const {
  HistogramData d;
  d.count = count_.load(std::memory_order_relaxed);
  d.sum = sum_.load(std::memory_order_relaxed);
  d.min = min_.load(std::memory_order_relaxed);
  d.max = max_.load(std::memory_order_relaxed);
  for (int i = 0; i < kHistogramBuckets; ++i) {
    d.buckets[static_cast<std::size_t>(i)] =
        buckets_[static_cast<std::size_t>(i)].load(std::memory_order_relaxed);
  }
  return d;
}

const MetricSample* MetricsSnapshot::find(std::string_view name) const {
  const auto it = std::lower_bound(
      samples.begin(), samples.end(), name,
      [](const MetricSample& s, std::string_view n) { return s.name < n; });
  return (it != samples.end() && it->name == name) ? &*it : nullptr;
}

MetricsSnapshot metrics_delta(const MetricsSnapshot& before, const MetricsSnapshot& after) {
  MetricsSnapshot out;
  out.samples.reserve(after.samples.size());
  for (const MetricSample& a : after.samples) {
    MetricSample d = a;
    if (const MetricSample* b = before.find(a.name); b != nullptr && b->kind == a.kind) {
      switch (a.kind) {
        case MetricKind::kCounter:
          d.count = a.count - b->count;
          break;
        case MetricKind::kGauge:
          d.count = a.count - b->count;  // the latest value stands
          break;
        case MetricKind::kHistogram:
          d.count = a.count - b->count;
          d.sum = a.sum - b->sum;
          d.value = d.count > 0 ? static_cast<double>(d.sum) / static_cast<double>(d.count)
                                : 0.0;
          // Buckets subtract like count/sum: the before-side tally is a
          // prefix of the after side, so every delta is non-negative and
          // quantiles of the delta describe just this interval.
          for (int i = 0; i < kHistogramBuckets; ++i) {
            d.buckets[static_cast<std::size_t>(i)] =
                a.buckets[static_cast<std::size_t>(i)] -
                b->buckets[static_cast<std::size_t>(i)];
          }
          bound_extremes(d);
          break;
      }
    }
    out.samples.push_back(std::move(d));
  }
  return out;
}

double histogram_quantile(const MetricSample& sample, double q) {
  if (sample.kind != MetricKind::kHistogram || sample.count <= 0) return 0.0;
  q = std::clamp(q, 0.0, 1.0);
  // The (n-1)*q rank convention of stats::quantile_sorted, applied to the
  // bucketed tally: find the bucket holding the (possibly fractional)
  // rank, then interpolate linearly across the bucket's value range.
  const double rank = static_cast<double>(sample.count - 1) * q;
  std::int64_t cum_before = 0;
  for (int i = 0; i < kHistogramBuckets; ++i) {
    const std::int64_t n = sample.buckets[static_cast<std::size_t>(i)];
    if (n == 0) continue;
    if (rank < static_cast<double>(cum_before + n) ||
        cum_before + n == sample.count) {
      // Bucket i spans [2^(i-1), 2^i); bucket 0 holds v <= 0 and the top
      // bucket is open-ended — both get pinned to the observed extremes,
      // as do the partially-covered edge buckets.
      double lo = i == 0 ? static_cast<double>(std::min<std::int64_t>(sample.min, 0))
                         : static_cast<double>(std::int64_t{1} << (i - 1));
      double hi = i == 0 ? 0.0
                 : i == kHistogramBuckets - 1
                     ? static_cast<double>(sample.max)
                     : static_cast<double>(std::int64_t{1} << i);
      lo = std::max(lo, static_cast<double>(sample.min));
      hi = std::min(hi, static_cast<double>(sample.max) + 1.0);
      hi = std::max(hi, lo);
      const double within =
          (rank - static_cast<double>(cum_before) + 0.5) / static_cast<double>(n);
      const double v = lo + std::clamp(within, 0.0, 1.0) * (hi - lo);
      return std::clamp(v, static_cast<double>(sample.min),
                        static_cast<double>(sample.max));
    }
    cum_before += n;
  }
  return static_cast<double>(sample.max);
}

std::string metrics_json(const MetricsSnapshot& snapshot) {
  std::ostringstream out;
  out << '{';
  bool first = true;
  for (const MetricSample& s : snapshot.samples) {
    if (s.count == 0) continue;
    if (!first) out << ", ";
    first = false;
    out << '"' << json_escape(s.name) << "\": ";
    switch (s.kind) {
      case MetricKind::kCounter:
        out << s.count;
        break;
      case MetricKind::kGauge:
        out << json_number(s.value);
        break;
      case MetricKind::kHistogram:
        out << "{\"count\": " << s.count << ", \"sum\": " << s.sum
            << ", \"mean\": " << json_number(s.value) << ", \"min\": " << s.min
            << ", \"max\": " << s.max
            << ", \"p50\": " << json_number(histogram_quantile(s, 0.50))
            << ", \"p90\": " << json_number(histogram_quantile(s, 0.90))
            << ", \"p99\": " << json_number(histogram_quantile(s, 0.99)) << '}';
        break;
    }
  }
  out << '}';
  return out.str();
}

Registry& Registry::global() {
  static Registry registry;
  return registry;
}

Counter& Registry::counter(std::string_view name) {
  std::lock_guard<std::mutex> lk(m_);
  return find_or_create(counters_, name);
}

Gauge& Registry::gauge(std::string_view name) {
  std::lock_guard<std::mutex> lk(m_);
  return find_or_create(gauges_, name);
}

Histogram& Registry::histogram(std::string_view name) {
  std::lock_guard<std::mutex> lk(m_);
  return find_or_create(histograms_, name);
}

MetricsSnapshot Registry::snapshot() const {
  MetricsSnapshot snap;
  std::lock_guard<std::mutex> lk(m_);
  for (const auto& [name, c] : counters_) {
    MetricSample s;
    s.name = name;
    s.kind = MetricKind::kCounter;
    s.count = c->value();
    snap.samples.push_back(std::move(s));
  }
  for (const auto& [name, g] : gauges_) {
    MetricSample s;
    s.name = name;
    s.kind = MetricKind::kGauge;
    s.count = g->sets();
    s.value = g->value();
    snap.samples.push_back(std::move(s));
  }
  for (const auto& [name, h] : histograms_) {
    const HistogramData d = h->data();
    MetricSample s;
    s.name = name;
    s.kind = MetricKind::kHistogram;
    s.count = d.count;
    s.sum = d.sum;
    s.value = d.mean();
    s.min = d.count > 0 ? d.min : 0;
    s.max = d.count > 0 ? d.max : 0;
    s.buckets = d.buckets;
    snap.samples.push_back(std::move(s));
  }
  std::sort(snap.samples.begin(), snap.samples.end(),
            [](const MetricSample& a, const MetricSample& b) { return a.name < b.name; });
  return snap;
}

}  // namespace rsd::obs

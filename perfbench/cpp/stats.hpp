// Small statistics and host-fact helpers for the benchmark binary.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

namespace perfbench {

/// Median of `values` (mean of the middle two for an even count); 0 when
/// empty.
[[nodiscard]] double median(std::vector<double> values);

/// The tail the benchmark reports: the highest percentile that still has
/// at least `beyond` samples above it, i.e. the sample at ascending rank
/// n - beyond - 1, but never below the median: with fewer than
/// 2 * beyond + 1 samples the tail is the upper median.
struct Tail {
  double value = 0.0;
  double percentile = 100.0;
  std::size_t samples = 0;       ///< n.
  std::size_t beyond_count = 0;  ///< Samples strictly above the tail rank.
};
[[nodiscard]] Tail tail_with_beyond(std::vector<double> values, std::size_t beyond = 10);

/// Peak resident set size of this process in MiB (getrusage).
[[nodiscard]] double peak_rss_mb();

/// Online CPUs of this host.
[[nodiscard]] int host_nproc();

/// "gcc 12.2.0" style compiler identity of this build.
[[nodiscard]] std::string compiler_id();

/// Quote and escape `s` as a JSON string.
[[nodiscard]] std::string json_string(const std::string& s);

/// Format a double for JSON with all its significant digits (non-finite
/// values become 0).
[[nodiscard]] std::string json_number(double v);

}  // namespace perfbench

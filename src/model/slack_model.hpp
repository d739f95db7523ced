// The paper's slack-penalty prediction model (Section IV-D).
//
// Equation 3 maps each of an application's kernel durations / transfer
// sizes onto proxy matrix sizes and takes the count-weighted average of the
// proxy's measured penalties. Because an application value generally falls
// *between* two proxy sizes, rounding the matrix-size equivalent up gives a
// lower (optimistic) penalty bound and rounding down an upper (pessimistic)
// one — penalties shrink with matrix size.
//
// Equation 2 combines the kernel-side and memory-side penalties, weighted
// by the fraction of the traced runtime spent in kernels / transfers:
//
//   SP_total = %Runtime_Kernel * SP_Kernel + %Runtime_Memory * SP_Memory
#pragma once

#include <cstdint>
#include <vector>

#include "core/units.hpp"
#include "model/response_surface.hpp"
#include "trace/analysis.hpp"
#include "trace/trace.hpp"

namespace rsd::model {

struct PenaltyBounds {
  double lower = 0.0;  ///< Matrix-size equivalents rounded up (optimistic).
  double upper = 0.0;  ///< Rounded down (pessimistic).

  /// True when `penalty` lands inside [lower - tolerance, upper + tolerance]
  /// — the paper's validation criterion (a measured penalty between the
  /// Equation 2 bounds), with an absolute widening for interpolation error.
  [[nodiscard]] constexpr bool contains(double penalty, double tolerance = 0.0) const {
    return penalty >= lower - tolerance && penalty <= upper + tolerance;
  }
};

/// Count of application elements attributed to each proxy matrix size under
/// the round-up / round-down rules (diagnostic output of Equation 3).
struct BinnedAttribution {
  std::vector<std::int64_t> matrix_sizes;      ///< Ascending.
  std::vector<std::size_t> round_up_counts;    ///< Per size, lower bound path.
  std::vector<std::size_t> round_down_counts;  ///< Per size, upper bound path.
  std::size_t total = 0;
};

struct SlackPrediction {
  SimDuration slack;
  int parallelism = 1;
  trace::RuntimeFractions fractions;  ///< Equation 2 weights.
  PenaltyBounds kernel;               ///< Equation 3 over kernel durations.
  PenaltyBounds memory;               ///< Equation 3 over transfer sizes.
  PenaltyBounds total;                ///< Equation 2.
  BinnedAttribution kernel_bins;
  BinnedAttribution memory_bins;
};

class SlackModel {
 public:
  /// `clamp_negative_penalties`: multi-thread proxy cells can show
  /// normalized runtimes below 1 (the saturated baseline's queueing is
  /// relieved once slack thins the request stream). A *starvation* penalty
  /// cannot be negative, so by default those cells contribute 0 rather
  /// than predicting speedups.
  explicit SlackModel(ResponseSurface surface, bool clamp_negative_penalties = true)
      : surface_(std::move(surface)), clamp_negative_(clamp_negative_penalties) {}

  [[nodiscard]] const ResponseSurface& surface() const { return surface_; }

  /// Predict the slack penalty an application with this trace would suffer
  /// under `slack` per CUDA call, assuming it submits GPU work with the
  /// given effective parallelism (LAMMPS: its process count; CosmoFlow: the
  /// paper derives an equivalent of 4 from its kernel-sequence queuing).
  /// Throws rsd::Error{kInvalidArgument} for parallelism < 1 or a negative
  /// slack.
  [[nodiscard]] SlackPrediction predict(const trace::Trace& app_trace, int parallelism,
                                        SimDuration slack) const;

  /// Equation 3 for an arbitrary set of element values against proxy
  /// characteristics: `values` are application measurements (kernel us or
  /// transfer MiB) and `characteristic(point)` selects the proxy column to
  /// compare against.
  [[nodiscard]] PenaltyBounds equation3(const std::vector<double>& values,
                                        bool use_kernel_characteristic, int parallelism,
                                        SimDuration slack,
                                        BinnedAttribution* attribution = nullptr) const;

 private:
  ResponseSurface surface_;
  bool clamp_negative_;
};

}  // namespace rsd::model

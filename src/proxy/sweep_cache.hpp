// Memoized Figure-3 response surfaces.
//
// Several harnesses need a proxy slack sweep (~hundreds of DES runs), and
// fig3, table4, model_validation and extension_trace_replay all need the
// same default one. `SweepCache` keys a sweep by everything that
// determines its output — device calibration, link parameters, and the
// `SweepConfig` grid, compared exactly — and memoizes it in-process, so
// one `ExperimentContext` computes each surface at most once.
//
// The simulations are bit-deterministic, so a hit returns exactly the
// points a fresh sweep would.
#pragma once

#include <mutex>
#include <vector>

#include "obs/metrics.hpp"
#include "proxy/proxy.hpp"

namespace rsd::proxy {

class SweepCache {
 public:
  /// Return the memoized sweep, or run it (fanned out on `pool`, with the
  /// obs tracer paused) on a miss.
  [[nodiscard]] std::vector<SweepPoint> get_or_run(const ProxyRunner& runner,
                                                   const SweepConfig& config, exec::Pool& pool);

  /// Observability for the harness: how the `get_or_run` calls so far
  /// were served. `sweeps_computed()` counting one per distinct surface
  /// across a whole rsd_bench invocation is the "surface built once"
  /// guarantee. These are thin wrappers over per-instance `obs::Counter`s;
  /// every increment is also mirrored into the global metrics registry
  /// (`sweep_cache.*`).
  [[nodiscard]] std::size_t memory_hits() const {
    return static_cast<std::size_t>(memory_hits_.value());
  }
  [[nodiscard]] std::size_t sweeps_computed() const {
    return static_cast<std::size_t>(sweeps_computed_.value());
  }

 private:
  /// One memoized surface and the inputs it was computed from.
  struct Entry {
    gpu::DeviceParams device;
    interconnect::LinkParams link;
    SweepConfig config;
    std::vector<SweepPoint> points;
  };

  mutable std::mutex m_;
  std::vector<Entry> entries_;  ///< A handful per invocation: searched linearly.
  obs::Counter memory_hits_;
  obs::Counter sweeps_computed_;
};

}  // namespace rsd::proxy

// The slack proxy application (Section III-C).
//
// Reproduces the paper's proxy exactly, on the simulated device:
//
//   * workload: square float matmul A x B = C; the matrix size controls
//     both kernel runtime and transfer size;
//   * calibration: a preliminary kernel timing sizes the iteration count N
//     to ~30 s of raw GPU compute, clamped to [5, 1000];
//   * main compute loop (N times): copy A and B to the device, run the
//     kernel, copy C back, synchronize — 5 CUDA calls per iteration, each
//     followed by the injected slack;
//   * parallelism: T simulated host threads, each with its own Context and
//     its own copies of the matrices (which is why 2^15 with >=4 threads
//     exceeds the 40 GiB device and is excluded, as in the paper);
//   * analysis: Equation 1 strips the injected delay so only the secondary
//     GPU-starvation penalty remains.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "core/units.hpp"
#include "gpusim/context.hpp"
#include "gpusim/device.hpp"
#include "interconnect/link.hpp"
#include "trace/trace.hpp"

namespace rsd::exec {
class Pool;
}  // namespace rsd::exec

namespace rsd::proxy {

struct ProxyConfig {
  std::int64_t matrix_n = 1 << 9;  ///< Square matrix dimension.
  int threads = 1;                 ///< Parallel host threads (OpenMP in the paper).
  SimDuration slack = SimDuration::zero();  ///< Injected per CUDA call.
  /// Calibration targets (Section III-C).
  SimDuration target_compute = duration::seconds(30.0);
  std::int64_t min_iterations = 5;
  std::int64_t max_iterations = 1000;
  bool capture_trace = false;  ///< Record an NSys-style trace of the run.
  /// Native disaggregated command path (instead of / in addition to the
  /// sleep-emulated `slack`). Defaults to a local device.
  gpu::CommandPath command_path = gpu::CommandPath::local();
  /// Sleep after each call (the proxy's method) or before it (the paper's
  /// LD_PRELOAD alternative).
  gpu::SlackPosition slack_position = gpu::SlackPosition::kAfterCall;
  /// Run the asynchronous double-buffered pipeline instead of the paper's
  /// synchronous loop: copies on one stream, kernels on another, event
  /// dependencies between them. This is the optimistic counterpart the
  /// paper deliberately sets aside (Section III-B) — it shows how much
  /// slack tolerance pipelining buys. Needs 2x the device memory.
  bool async_pipeline = false;
  /// Sleep-overshoot noise: each injected slack sleeps per_call *
  /// exp(N(0, sigma)). 0 = the deterministic model. Repeat runs over
  /// different seeds to reproduce the paper's 5-run averaging protocol.
  double host_noise_sigma = 0.0;
  std::uint64_t seed = 0x5eed;
};

/// CUDA calls per main-loop iteration: 3 matrix memcpys + 1 kernel launch +
/// 1 synchronize (Section III-C).
inline constexpr std::int64_t kCudaCallsPerIteration = 5;

struct ProxyResult {
  std::int64_t matrix_n = 0;
  int threads = 1;
  SimDuration slack;
  Bytes matrix_bytes = 0;          ///< One matrix (n^2 floats).
  SimDuration kernel_duration;     ///< Single-kernel baseline timing.
  std::int64_t iterations = 0;     ///< N, per thread.
  SimDuration loop_runtime;        ///< Wall time of the main compute loop.
  SimDuration no_slack_time;       ///< Equation 1 applied to loop_runtime.
  std::int64_t cuda_calls_per_thread = 0;
  bool fits_memory = true;         ///< False when the config OOMs (excluded).
  std::optional<trace::Trace> trace;  ///< Present when capture_trace was set.
};

/// Allocation gate: whether `threads` host threads' A, B and C matrices of
/// n x n floats fit the device's memory (the async pipeline double-buffers,
/// doubling the footprint). A configuration that does not fit is reported
/// rather than half-simulated, and the sweep leaves it out (e.g. 2^15 at
/// >= 4 threads, as in the paper).
[[nodiscard]] bool config_fits(const gpu::DeviceParams& params, std::int64_t n, int threads,
                               bool async_pipeline = false);

/// Iteration-count calibration: floor(target / kernel_time) clamped to
/// [min, max] (Section III-C).
[[nodiscard]] std::int64_t calibrate_iterations(SimDuration kernel_time, SimDuration target,
                                                std::int64_t min_iters, std::int64_t max_iters);

/// Runs proxy configurations, each on a fresh simulated device.
class ProxyRunner {
 public:
  ProxyRunner(gpu::DeviceParams device_params, interconnect::LinkParams link_params);

  /// Defaults: A100-class device behind PCIe gen4 x16.
  ProxyRunner();

  [[nodiscard]] const gpu::DeviceParams& device_params() const { return device_params_; }
  [[nodiscard]] const interconnect::LinkParams& link_params() const { return link_params_; }

  /// Execute one proxy run. Returns fits_memory=false (and no timing) when
  /// the matrices do not fit on the device.
  [[nodiscard]] ProxyResult run(const ProxyConfig& config) const;

 private:
  gpu::DeviceParams device_params_;
  interconnect::LinkParams link_params_;
};

/// One point of the Figure 3 sweep.
struct SweepPoint {
  std::int64_t matrix_n = 0;
  int threads = 1;
  SimDuration slack;
  /// no_slack_time / baseline no_slack_time; 1.0 = unaffected. The quantity
  /// plotted on Figure 3's y axis.
  double normalized_runtime = 0.0;
  ProxyResult result;
};

struct SweepConfig {
  std::vector<std::int64_t> matrix_sizes{1 << 9, 1 << 11, 1 << 13, 1 << 15};
  std::vector<int> thread_counts{1, 2, 4, 8};
  std::vector<SimDuration> slacks{
      SimDuration::zero(),          duration::microseconds(1.0),
      duration::microseconds(10.0), duration::microseconds(100.0),
      duration::milliseconds(1.0),  duration::milliseconds(10.0)};
  SimDuration target_compute = duration::seconds(30.0);

  bool operator==(const SweepConfig&) const = default;
};

/// The full Figure 3 sweep: every (size, threads, slack) combination that
/// fits in device memory, normalized per (size, threads) against the
/// zero-slack baseline. Runs on `exec::Pool::global()`.
[[nodiscard]] std::vector<SweepPoint> run_slack_sweep(const ProxyRunner& runner,
                                                      const SweepConfig& config);

/// Same sweep fanned out on an explicit pool. Each cell's simulation stays
/// single-threaded; results are assembled in the serial loop's order, so
/// the output is bit-identical for any pool size. Two levels of fan-out:
/// the zero-slack baselines first (they decide which cells fit memory),
/// then every non-zero slack point of the surviving cells.
[[nodiscard]] std::vector<SweepPoint> run_slack_sweep(const ProxyRunner& runner,
                                                      const SweepConfig& config,
                                                      exec::Pool& pool);

}  // namespace rsd::proxy

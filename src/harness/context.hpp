// Shared per-invocation state. Before the harness, each bench binary
// built its own thread pool and recomputed its response surfaces; one
// `ExperimentContext` now outlives every experiment in an `rsd_bench`
// invocation, so each Figure-3 surface is computed once and every later
// consumer hits warm memory.
#pragma once

#include <cstdint>
#include <filesystem>
#include <iostream>
#include <string>
#include <vector>

#include "exec/pool.hpp"
#include "harness/manifest.hpp"
#include "interconnect/fabric.hpp"
#include "proxy/sweep_cache.hpp"

namespace rsd {
class CsvWriter;
}  // namespace rsd

namespace rsd::harness {

class ExperimentContext {
 public:
  struct Options {
    std::filesystem::path results_dir;  ///< Empty = `rsd::results_dir()`.
    int threads = 0;                    ///< <= 0 = `exec::default_thread_count()`.
    /// Worker threads *inside* one partitioned simulation (the
    /// sim::ParallelEngine width), as opposed to `threads`, which fans out
    /// across independent runs. <= 0 = `exec::default_sim_thread_count()`
    /// (the RSD_SIM_THREADS env var, else 1). Tracked outputs are
    /// byte-identical at any value.
    int sim_threads = 0;
    /// Row fabric for fabric-aware experiments (a net::parse_fabric_kind
    /// name, or "all" to sweep). Empty resolves the RSD_FABRIC env var,
    /// else "all" — mirroring the `--sim-threads` precedence. Any other
    /// value, from either source, throws rsd::Error{kInvalidArgument}
    /// naming `--fabric` or RSD_FABRIC.
    std::string fabric;
    /// Chassis width for multi-chassis-aware experiments: devices per
    /// chassis in the machine graph (`--gpus-per-chassis` >
    /// RSD_GPUS_PER_CHASSIS > 0). 0 keeps each experiment's flat default;
    /// >= 1 asks fabric builders for per-chassis NICs + inter-chassis
    /// fibre at that grouping. Values < 1 from the env are rejected with
    /// rsd::Error{kInvalidArgument}.
    int gpus_per_chassis = 0;
    int runs = 5;                       ///< The paper's repetition protocol.
    std::uint64_t seed = 1;             ///< Base seed for seeded repetitions.
    std::ostream* out = &std::cout;
    /// Non-empty enables the obs timeline tracer for the invocation; the
    /// CLI exports trace.json / trace_ops.csv here afterwards.
    std::filesystem::path trace_dir;
  };

  ExperimentContext() : ExperimentContext(Options{}) {}
  explicit ExperimentContext(Options options);

  /// The invocation-wide fan-out pool (`--threads` / RSD_THREADS wide).
  [[nodiscard]] exec::Pool& pool() { return pool_; }

  /// Memoized Figure-3 response surfaces, shared across experiments, so
  /// each surface is simulated at most once per invocation.
  [[nodiscard]] proxy::SweepCache& sweep_cache() { return sweep_cache_; }

  [[nodiscard]] const std::filesystem::path& results_dir() const { return results_dir_; }
  [[nodiscard]] int runs() const { return runs_; }
  [[nodiscard]] std::uint64_t seed() const { return seed_; }

  /// Resolved intra-simulation width for partitioned engines
  /// (`--sim-threads` > RSD_SIM_THREADS > 1).
  [[nodiscard]] int sim_threads() const { return sim_threads_; }

  /// Resolved fabric selection for fabric-aware experiments
  /// (`--fabric` > RSD_FABRIC > "all"): one fabric, or all of
  /// net::all_fabric_kinds() in that order.
  [[nodiscard]] const std::vector<net::FabricKind>& fabrics() const { return fabrics_; }

  /// Resolved chassis width (`--gpus-per-chassis` > RSD_GPUS_PER_CHASSIS
  /// > 0). 0 = experiments keep their flat single-graph defaults.
  [[nodiscard]] int gpus_per_chassis() const { return gpus_per_chassis_; }

  /// Where the timeline export goes; empty when tracing is off.
  [[nodiscard]] const std::filesystem::path& trace_dir() const { return trace_dir_; }
  [[nodiscard]] bool tracing() const { return !trace_dir_.empty(); }

  /// Where experiment tables/narration go (std::cout under the CLI, a
  /// capture buffer under tests).
  [[nodiscard]] std::ostream& out() { return *out_; }

  /// Write `<results_dir>/<name>.csv`, log the path, and record it for
  /// the run manifest.
  void save_csv(const std::string& name, const CsvWriter& csv);

  /// CSV paths recorded since the previous drain (the runner empties
  /// this after each experiment to attribute files in the manifest).
  [[nodiscard]] std::vector<std::string> drain_csv_paths();

  /// Record a critical-path attribution for the manifest's "attribution"
  /// block (tools/report.py renders it). Mirrors save_csv: experiments
  /// record unconditionally so the manifest is deterministic, and the
  /// runner drains per experiment.
  void record_attribution(AttributionEntry entry);
  [[nodiscard]] std::vector<AttributionEntry> drain_attributions();

 private:
  std::filesystem::path results_dir_;
  std::filesystem::path trace_dir_;
  int runs_;
  int sim_threads_;
  std::vector<net::FabricKind> fabrics_;
  int gpus_per_chassis_;
  std::uint64_t seed_;
  std::ostream* out_;
  exec::Pool pool_;
  proxy::SweepCache sweep_cache_;
  std::vector<std::string> csv_paths_;
  std::vector<AttributionEntry> attributions_;
};

}  // namespace rsd::harness

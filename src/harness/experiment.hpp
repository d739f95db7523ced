// The registry-driven experiment harness (`rsd::harness`).
//
// Every paper table/figure/ablation/extension is one `Experiment`:
// a stable CLI name, selection tags, a description, and a `run` body.
// Experiments self-register into `Registry::global()` at static-init time
// (see RSD_EXPERIMENT below), and the single `rsd_bench` binary selects
// and runs any subset of the fleet in one process — so the shared
// `exec::Pool` and memoized response surfaces in `ExperimentContext`
// survive across experiments instead of dying at a process boundary.
#pragma once

#include <string>
#include <vector>

namespace rsd::harness {

class ExperimentContext;

/// An experiment backed by a free function — what RSD_EXPERIMENT
/// produces. Tags are given as one comma-separated string ("figure" or
/// "figure,proxy") because commas inside braced-init-lists would split
/// macro arguments.
class Experiment {
 public:
  using RunFn = void (*)(ExperimentContext&);

  Experiment(std::string name, const std::string& tags_csv, std::string description, RunFn fn);

  /// Stable CLI identifier, e.g. "fig3_slack_sweep".
  [[nodiscard]] const std::string& name() const { return name_; }

  /// Selection labels: "figure", "table", "text", "ablation",
  /// "extension", "micro". An experiment may carry several.
  [[nodiscard]] const std::vector<std::string>& tags() const { return tags_; }

  /// First line: one-line summary (what `--list` shows). Remaining
  /// lines: detail printed above the experiment's output.
  [[nodiscard]] const std::string& description() const { return description_; }

  void run(ExperimentContext& ctx) const { fn_(ctx); }

 private:
  std::string name_;
  std::vector<std::string> tags_;
  std::string description_;
  RunFn fn_;
};

/// Register an Experiment into `Registry::global()`. Returns the
/// registry's verdict: false means the name was already taken (the
/// conflict is recorded in `Registry::global().errors()` and reported by
/// the CLI rather than silently shadowing an experiment).
bool register_experiment(std::string name, const std::string& tags_csv, std::string description,
                         Experiment::RunFn fn);

}  // namespace rsd::harness

/// Defines and registers an experiment:
///
///   RSD_EXPERIMENT(fig3_slack_sweep, "fig3_slack_sweep", "figure",
///                  "Figure 3 — proxy slack sweep ...") {
///     ... body using `ctx` (an ExperimentContext&) ...
///   }
#define RSD_EXPERIMENT(ident, name, tags_csv, description)                              \
  static void rsd_experiment_##ident(::rsd::harness::ExperimentContext& ctx);           \
  [[maybe_unused]] static const bool rsd_experiment_registered_##ident =                \
      ::rsd::harness::register_experiment(name, tags_csv, description,                  \
                                          &rsd_experiment_##ident);                     \
  static void rsd_experiment_##ident(                                                   \
      [[maybe_unused]] ::rsd::harness::ExperimentContext& ctx)

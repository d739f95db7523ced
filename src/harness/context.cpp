#include "harness/context.hpp"

#include <cstdlib>
#include <string>

#include "core/csv.hpp"
#include "core/env.hpp"
#include "core/error.hpp"
#include "core/paths.hpp"
#include "exec/team.hpp"
#include "obs/tracer.hpp"

namespace rsd::harness {

namespace {

std::filesystem::path resolve_results_dir(const ExperimentContext::Options& options) {
  return options.results_dir.empty() ? rsd::results_dir() : options.results_dir;
}

std::vector<net::FabricKind> resolve_fabrics(const ExperimentContext::Options& options) {
  const bool from_flag = !options.fabric.empty();
  const char* env = std::getenv("RSD_FABRIC");
  const std::string value = from_flag ? options.fabric : env != nullptr ? env : "";
  if (value.empty() || value == "all") return net::all_fabric_kinds();
  try {
    return {net::parse_fabric_kind(value)};
  } catch (const Error&) {
    throw Error{ErrorCode::kInvalidArgument,
                std::string{from_flag ? "--fabric" : "RSD_FABRIC"} +
                    " expects ring, fullmesh, eswitch, ocs or all, got '" + value + "'"};
  }
}

int resolve_gpus_per_chassis(const ExperimentContext::Options& options) {
  if (options.gpus_per_chassis > 0) return options.gpus_per_chassis;
  return env_count("RSD_GPUS_PER_CHASSIS").value_or(0);
}

}  // namespace

ExperimentContext::ExperimentContext(Options options)
    : results_dir_(resolve_results_dir(options)),
      trace_dir_(options.trace_dir),
      runs_(options.runs >= 1 ? options.runs : 1),
      sim_threads_(options.sim_threads >= 1 ? options.sim_threads
                                            : exec::default_sim_thread_count()),
      fabrics_(resolve_fabrics(options)),
      gpus_per_chassis_(resolve_gpus_per_chassis(options)),
      seed_(options.seed),
      out_(options.out != nullptr ? options.out : &std::cout),
      pool_(options.threads >= 1 ? options.threads : exec::default_thread_count()) {
  // Enabled before any experiment runs, so every gpu::Device constructed
  // under this invocation acquires a simulated-timeline id.
  if (!trace_dir_.empty()) obs::Tracer::instance().enable();
}

void ExperimentContext::save_csv(const std::string& name, const CsvWriter& csv) {
  std::filesystem::create_directories(results_dir_);
  const auto path = (results_dir_ / (name + ".csv")).string();
  csv.save(path);
  *out_ << "[csv] " << path << "\n";
  csv_paths_.push_back(path);
}

std::vector<std::string> ExperimentContext::drain_csv_paths() {
  std::vector<std::string> out;
  out.swap(csv_paths_);
  return out;
}

void ExperimentContext::record_attribution(AttributionEntry entry) {
  attributions_.push_back(std::move(entry));
}

std::vector<AttributionEntry> ExperimentContext::drain_attributions() {
  std::vector<AttributionEntry> out;
  out.swap(attributions_);
  return out;
}

}  // namespace rsd::harness

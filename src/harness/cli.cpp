#include "harness/cli.hpp"

#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <iomanip>
#include <limits>
#include <optional>
#include <ostream>
#include <sstream>
#include <string>
#include <vector>

#include "core/csv.hpp"
#include "core/env.hpp"
#include "core/error.hpp"
#include "harness/context.hpp"
#include "harness/registry.hpp"
#include "harness/runner.hpp"
#include "obs/tracer.hpp"
#include "trace/timeline.hpp"

namespace rsd::harness {

namespace {

constexpr const char* kUsage =
    "usage: rsd_bench [options] [name-globs...]\n"
    "\n"
    "Run paper experiments (tables, figures, ablations, extensions) in one\n"
    "process. With no selection, the whole fleet runs.\n"
    "\n"
    "  --list             enumerate the selection (default: all) and exit\n"
    "  --tags T1,T2       restrict to experiments carrying any of the tags\n"
    "  --threads N        fan-out width ACROSS independent runs: how many\n"
    "                     sequential simulations execute concurrently\n"
    "                     (default: RSD_THREADS or hardware)\n"
    "  --sim-threads N    worker threads INSIDE one partitioned simulation\n"
    "                     (sim::ParallelEngine width). Outputs are byte-\n"
    "                     identical at any value; this is purely a speed\n"
    "                     knob (default: RSD_SIM_THREADS or 1)\n"
    "  --fabric NAME      row fabric for fabric-aware experiments: ring,\n"
    "                     fullmesh, eswitch, ocs, or all to sweep every\n"
    "                     shape (default: RSD_FABRIC or all)\n"
    "  --gpus-per-chassis N\n"
    "                     chassis width for multi-chassis-aware experiments:\n"
    "                     build the machine graph with per-chassis NICs and\n"
    "                     inter-chassis fibre at N devices per chassis\n"
    "                     (default: RSD_GPUS_PER_CHASSIS, else each\n"
    "                     experiment's flat single-graph shape)\n"
    "  --runs N           repetitions for seeded protocols (default: 5)\n"
    "  --seed S           base seed for seeded protocols (default: 1)\n"
    "  --results-dir DIR  where CSVs/cache/manifest go (default: the\n"
    "                     canonical bench_results/; RSD_RESULTS_DIR works too)\n"
    "  --manifest FILE    manifest path (default: <results>/run_manifest.json)\n"
    "  --trace DIR        enable the obs timeline tracer and export trace.json\n"
    "                     (Chrome/Perfetto) + trace_ops.csv (NSys-style, re-\n"
    "                     importable via trace::import) into DIR; RSD_TRACE=DIR\n"
    "                     in the environment does the same\n"
    "  --help             this text\n"
    "\n"
    "Name globs use * and ?; a leading 'bench_' is ignored, so old binary\n"
    "names like bench_fig3_slack_sweep still select fig3_slack_sweep.\n";

std::vector<std::string> split_csv(const std::string& csv) {
  std::vector<std::string> out;
  std::istringstream in{csv};
  std::string item;
  while (std::getline(in, item, ',')) {
    if (!item.empty()) out.push_back(item);
  }
  return out;
}

std::string first_line(const std::string& text) {
  const auto nl = text.find('\n');
  return nl == std::string::npos ? text : text.substr(0, nl);
}

std::string join(const std::vector<std::string>& items, const char* sep) {
  std::string out;
  for (std::size_t i = 0; i < items.size(); ++i) {
    if (i > 0) out += sep;
    out += items[i];
  }
  return out;
}

void print_list(const std::vector<const Experiment*>& selected, std::ostream& out) {
  std::size_t name_width = 0, tag_width = 0;
  for (const Experiment* e : selected) {
    name_width = std::max(name_width, e->name().size());
    tag_width = std::max(tag_width, join(e->tags(), ",").size());
  }
  for (const Experiment* e : selected) {
    out << std::left << std::setw(static_cast<int>(name_width) + 2) << e->name()
        << std::setw(static_cast<int>(tag_width) + 2) << join(e->tags(), ",")
        << first_line(e->description()) << "\n";
  }
  out << selected.size() << " experiment(s)\n";
}

}  // namespace

int run_cli(int argc, const char* const* argv, std::ostream& out, std::ostream& err) {
  Registry& registry = Registry::global();
  if (!registry.errors().empty()) {
    for (const auto& e : registry.errors()) err << "registry error: " << e << "\n";
    return 2;
  }

  ExperimentContext::Options options;
  std::vector<std::string> patterns;
  std::vector<std::string> tags;
  std::optional<std::string> manifest_path;
  bool list = false;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&](const char* flag) -> std::optional<std::string> {
      if (i + 1 >= argc) {
        err << "rsd_bench: " << flag << " needs a value\n";
        return std::nullopt;
      }
      return std::string{argv[++i]};
    };
    // Every integer flag: parse_integer's whole-token rule, range-checked
    // into the option's type.
    auto int_value = [&]<typename T>(const char* flag, T min) -> std::optional<T> {
      const auto v = value(flag);
      if (!v) return std::nullopt;
      const std::optional<T> n = parse_integer(*v, min);
      if (!n) {
        err << "rsd_bench: " << flag << " expects an integer >= " << min << " and <= "
            << std::numeric_limits<T>::max() << " (got '" << *v << "')\n";
      }
      return n;
    };

    if (arg == "--help" || arg == "-h") {
      out << kUsage;
      return 0;
    } else if (arg == "--list") {
      list = true;
    } else if (arg == "--tags") {
      const auto v = value("--tags");
      if (!v) return 2;
      for (auto& t : split_csv(*v)) tags.push_back(std::move(t));
    } else if (arg == "--threads") {
      const auto v = int_value("--threads", 1);
      if (!v) return 2;
      options.threads = *v;
    } else if (arg == "--sim-threads") {
      const auto v = int_value("--sim-threads", 1);
      if (!v) return 2;
      options.sim_threads = *v;
    } else if (arg == "--fabric") {
      const auto v = value("--fabric");
      if (!v) return 2;
      options.fabric = *v;
    } else if (arg == "--gpus-per-chassis") {
      const auto v = int_value("--gpus-per-chassis", 1);
      if (!v) return 2;
      options.gpus_per_chassis = *v;
    } else if (arg == "--runs") {
      const auto v = int_value("--runs", 1);
      if (!v) return 2;
      options.runs = *v;
    } else if (arg == "--seed") {
      const auto v = int_value("--seed", std::uint64_t{0});
      if (!v) return 2;
      options.seed = *v;
    } else if (arg == "--results-dir") {
      const auto v = value("--results-dir");
      if (!v) return 2;
      options.results_dir = *v;
    } else if (arg == "--manifest") {
      const auto v = value("--manifest");
      if (!v) return 2;
      manifest_path = *v;
    } else if (arg == "--trace") {
      const auto v = value("--trace");
      if (!v) return 2;
      options.trace_dir = *v;
    } else if (!arg.empty() && arg[0] == '-') {
      err << "rsd_bench: unknown option '" << arg << "'\n" << kUsage;
      return 2;
    } else {
      patterns.push_back(arg);
    }
  }

  // Every pattern must select something — a typo'd name is an error, not
  // a silently empty run.
  for (const auto& pattern : patterns) {
    if (registry.select({pattern}, {}).empty()) {
      err << "rsd_bench: unknown experiment or pattern '" << pattern
          << "' (run rsd_bench --list)\n";
      return 2;
    }
  }
  const std::vector<const Experiment*> selected = registry.select(patterns, tags);
  if (selected.empty()) {
    err << "rsd_bench: selection is empty";
    if (!tags.empty()) err << " (tags: " << join(tags, ",") << ")";
    err << " — run rsd_bench --list\n";
    return 2;
  }

  if (list) {
    print_list(selected, out);
    return 0;
  }

  if (options.trace_dir.empty()) {
    if (const char* env = std::getenv("RSD_TRACE"); env != nullptr && env[0] != '\0') {
      options.trace_dir = env;
    }
  }
  options.out = &out;
  // Context construction resolves the fabric selection (--fabric or
  // RSD_FABRIC) and the integer env-var knobs (RSD_THREADS,
  // RSD_SIM_THREADS, RSD_GPUS_PER_CHASSIS), which reject malformed values
  // — a usage error, not a crash.
  std::optional<ExperimentContext> ctx_storage;
  try {
    ctx_storage.emplace(options);
  } catch (const Error& e) {
    err << "rsd_bench: " << e.what() << "\n";
    return 2;
  }
  ExperimentContext& ctx = *ctx_storage;

  const RunSummary summary = run_experiments(selected, ctx);

  if (ctx.tracing()) {
    const auto snapshot = obs::Tracer::instance().snapshot();
    obs::Tracer::instance().disable();
    std::filesystem::create_directories(ctx.trace_dir());
    const auto json_path = ctx.trace_dir() / "trace.json";
    obs::write_chrome_trace(json_path.string(), snapshot);
    out << "[trace] " << json_path.string() << " (" << snapshot.events.size() << " events";
    if (snapshot.dropped > 0) out << ", " << snapshot.dropped << " dropped";
    out << ")\n";
    // The NSys-style ops CSV of the first simulation the rings kept whole,
    // re-importable via trace::import; a partial one would read as a
    // different program.
    const auto sim_ids = trace::timeline_sim_ids(snapshot);
    const auto csv_path = ctx.trace_dir() / "trace_ops.csv";
    if (!sim_ids.empty()) {
      const trace::Trace first = trace::from_timeline(snapshot, sim_ids.front());
      std::ofstream ops{csv_path, std::ios::trunc};
      ops << first.ops_to_csv();
      out << "[trace] " << csv_path.string() << " (sim " << sim_ids.front() << ", the first of "
          << sim_ids.size() << " whole traced simulations)\n";
    } else if (snapshot.max_dropped_sim_id >= 0) {
      std::filesystem::remove(csv_path);
      out << "[trace] no trace_ops.csv: no simulation survived whole in "
          << snapshot.ring_capacity
          << "-event rings; raise RSD_TRACE_BUFFER to keep one\n";
    }
  }

  const std::filesystem::path manifest =
      manifest_path ? std::filesystem::path{*manifest_path}
                    : ctx.results_dir() / "run_manifest.json";
  write_manifest(manifest, summary);

  double total_wall = 0.0;
  int failed = 0;
  for (const auto& o : summary.outcomes) {
    total_wall += o.wall_s;
    if (!o.ok) ++failed;
  }
  out << "\n[rsd_bench] " << summary.outcomes.size() << " experiment(s), "
      << std::fixed << std::setprecision(2) << total_wall << " s, threads=" << summary.threads
      << (failed > 0 ? ", FAILED: " + std::to_string(failed) : std::string{}) << "\n"
      << "[manifest] " << manifest.string() << "\n";
  return summary.all_ok() ? 0 : 1;
}

}  // namespace rsd::harness

// Harness tests: glob matching, registry registration/selection rules, the
// global fleet's invariants, manifest JSON, and the rsd_bench CLI driven
// in-process with captured streams.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <optional>
#include <sstream>
#include <string>
#include <utility>

#include "core/error.hpp"
#include "harness/cli.hpp"
#include "harness/context.hpp"
#include "harness/experiment.hpp"
#include "harness/manifest.hpp"
#include "harness/registry.hpp"

namespace {

using namespace rsd::harness;
namespace fs = std::filesystem;

void noop_run(ExperimentContext&) {}

std::unique_ptr<Experiment> make_experiment(std::string name, const std::string& tags = "test") {
  return std::make_unique<Experiment>(std::move(name), tags, "a test experiment", &noop_run);
}

int cli(std::vector<std::string> args, std::string* out_text = nullptr,
        std::string* err_text = nullptr) {
  std::vector<const char*> argv{"rsd_bench"};
  for (const auto& a : args) argv.push_back(a.c_str());
  std::ostringstream out;
  std::ostringstream err;
  const int rc = run_cli(static_cast<int>(argv.size()), argv.data(), out, err);
  if (out_text != nullptr) *out_text = out.str();
  if (err_text != nullptr) *err_text = err.str();
  return rc;
}

fs::path fresh_temp_dir(const std::string& name) {
  const fs::path dir = fs::path{testing::TempDir()} / name;
  fs::remove_all(dir);
  return dir;
}

TEST(GlobMatch, LiteralAndWildcards) {
  EXPECT_TRUE(glob_match("fig3_slack_sweep", "fig3_slack_sweep"));
  EXPECT_FALSE(glob_match("fig3_slack_sweep", "fig3_slack_swee"));
  EXPECT_TRUE(glob_match("fig*", "fig3_slack_sweep"));
  EXPECT_TRUE(glob_match("*sweep", "fig3_slack_sweep"));
  EXPECT_TRUE(glob_match("*slack*", "fig3_slack_sweep"));
  EXPECT_TRUE(glob_match("fig?_slack_sweep", "fig3_slack_sweep"));
  EXPECT_FALSE(glob_match("fig?_slack_sweep", "fig33_slack_sweep"));
  EXPECT_TRUE(glob_match("*", "anything"));
  EXPECT_TRUE(glob_match("*", ""));
  EXPECT_FALSE(glob_match("?", ""));
  // Multiple stars force the backtracking path.
  EXPECT_TRUE(glob_match("*a*b*", "xxaxxbxx"));
  EXPECT_FALSE(glob_match("*a*b*", "xxbxxaxx"));
}

TEST(Registry, KeepsExperimentsSortedByName) {
  Registry registry;
  EXPECT_TRUE(registry.add(make_experiment("zeta")));
  EXPECT_TRUE(registry.add(make_experiment("alpha")));
  EXPECT_TRUE(registry.add(make_experiment("mid")));
  ASSERT_EQ(registry.experiments().size(), 3u);
  EXPECT_EQ(registry.experiments()[0]->name(), "alpha");
  EXPECT_EQ(registry.experiments()[1]->name(), "mid");
  EXPECT_EQ(registry.experiments()[2]->name(), "zeta");
}

TEST(Registry, RejectsDuplicateNames) {
  Registry registry;
  EXPECT_TRUE(registry.add(make_experiment("dup")));
  EXPECT_FALSE(registry.add(make_experiment("dup")));
  EXPECT_EQ(registry.experiments().size(), 1u);
  ASSERT_EQ(registry.errors().size(), 1u);
  EXPECT_NE(registry.errors()[0].find("dup"), std::string::npos);
}

TEST(Registry, FindAndSelect) {
  Registry registry;
  ASSERT_TRUE(registry.add(make_experiment("fig1_thing", "figure")));
  ASSERT_TRUE(registry.add(make_experiment("fig2_other", "figure")));
  ASSERT_TRUE(registry.add(make_experiment("table1_thing", "table")));

  EXPECT_NE(registry.find("fig1_thing"), nullptr);
  EXPECT_EQ(registry.find("missing"), nullptr);

  // No selectors = the whole fleet.
  EXPECT_EQ(registry.select({}, {}).size(), 3u);
  // Glob over names.
  EXPECT_EQ(registry.select({"fig*"}, {}).size(), 2u);
  // Tag filter.
  ASSERT_EQ(registry.select({}, {"table"}).size(), 1u);
  EXPECT_EQ(registry.select({}, {"table"})[0]->name(), "table1_thing");
  // Pattern AND tag must both hold.
  EXPECT_EQ(registry.select({"fig*"}, {"table"}).size(), 0u);
  // Pre-harness binary names (leading bench_) keep selecting.
  ASSERT_EQ(registry.select({"bench_fig1_thing"}, {}).size(), 1u);
  EXPECT_EQ(registry.select({"bench_fig1_thing"}, {})[0]->name(), "fig1_thing");
}

TEST(Registry, TagsCsvSplitsIntoMultipleTags) {
  Registry registry;
  ASSERT_TRUE(registry.add(make_experiment("multi", "figure,proxy")));
  EXPECT_EQ(registry.select({}, {"proxy"}).size(), 1u);
  EXPECT_EQ(registry.select({}, {"figure"}).size(), 1u);
  EXPECT_EQ(registry.select({}, {"table"}).size(), 0u);
}

// The statically-registered fleet: the whole paper reproduction.
TEST(GlobalRegistry, FleetIsCompleteAndWellFormed) {
  const Registry& registry = Registry::global();
  EXPECT_TRUE(registry.errors().empty());
  EXPECT_GE(registry.experiments().size(), 26u);

  const std::vector<std::string> known_tags{"figure", "table",     "text",
                                            "ablation", "extension", "micro"};
  std::string prev;
  for (const auto& e : registry.experiments()) {
    EXPECT_LT(prev, e->name());  // strictly sorted = unique
    prev = e->name();
    EXPECT_FALSE(e->description().empty());
    ASSERT_FALSE(e->tags().empty());
    for (const auto& tag : e->tags()) {
      EXPECT_NE(std::find(known_tags.begin(), known_tags.end(), tag), known_tags.end())
          << e->name() << " carries unknown tag " << tag;
    }
  }

  // Every paper artifact the roadmap promises is registered.
  for (const char* name :
       {"table1_lammps_baseline", "fig2_lammps_scaling", "fig3_slack_sweep",
        "fig4_kernel_durations", "fig5_memcpy_sizes", "table2_proxy_calibration",
        "table3_transfer_binning", "table4_slack_penalty", "model_validation",
        "perf_sim_core"}) {
    EXPECT_NE(registry.find(name), nullptr) << name;
  }
}

TEST(JsonEscape, EscapesQuotesBackslashesAndControls) {
  EXPECT_EQ(json_escape("plain"), "plain");
  EXPECT_EQ(json_escape("a\"b"), "a\\\"b");
  EXPECT_EQ(json_escape("a\\b"), "a\\\\b");
  EXPECT_EQ(json_escape("line1\nline2"), "line1\\nline2");
  EXPECT_EQ(json_escape("a\tb\rc\bd\fe"), "a\\tb\\rc\\bd\\fe");
  EXPECT_EQ(json_escape(std::string{"x\x01y"}), "x\\u0001y");
  EXPECT_EQ(json_escape(std::string{"\x1f"}), "\\u001f");
}

TEST(Manifest, RecordsOutcomesAndOmitsNonFiniteWallClock) {
  RunSummary summary;
  summary.threads = 2;
  summary.results_dir = "/tmp/results";

  ExperimentOutcome ok;
  ok.name = "good";
  ok.tags = {"figure"};
  ok.ok = true;
  ok.wall_s = 1.25;
  ok.csv_paths = {"/tmp/results/good.csv"};
  summary.outcomes.push_back(ok);

  ExperimentOutcome bad;
  bad.name = "broken";
  bad.tags = {"table"};
  bad.ok = false;
  bad.error = "exploded:\n\"badly\"";
  bad.wall_s = std::nan("");
  summary.outcomes.push_back(bad);

  EXPECT_FALSE(summary.all_ok());
  const std::string json = manifest_json(summary);
  EXPECT_NE(json.find("\"schema\": \"rsd-bench-manifest-v4\""), std::string::npos);
  EXPECT_NE(json.find("\"name\": \"good\""), std::string::npos);
  EXPECT_NE(json.find("\"status\": \"ok\""), std::string::npos);
  EXPECT_NE(json.find("\"wall_s\": 1.25"), std::string::npos);
  EXPECT_NE(json.find("\"status\": \"failed\""), std::string::npos);
  // The failed outcome's NaN wall clock must not appear anywhere.
  EXPECT_EQ(json.find("nan"), std::string::npos);
  // Its error is escaped, not raw.
  EXPECT_NE(json.find("exploded:\\n\\\"badly\\\""), std::string::npos);

  // v2 additions: every experiment entry carries a metrics object, and
  // trace_dir appears only when the tracer was on.
  EXPECT_NE(json.find("\"metrics\": {}"), std::string::npos);
  EXPECT_EQ(json.find("\"trace_dir\""), std::string::npos);
  summary.trace_dir = "/tmp/trace";
  EXPECT_NE(manifest_json(summary).find("\"trace_dir\": \"/tmp/trace\""), std::string::npos);

  // v3/v4 additions: the attribution block appears only when an experiment
  // recorded one, with the seven components (v4 adds nic_ns) and the
  // optional Eq 2-3 band.
  EXPECT_EQ(json.find("\"attribution\""), std::string::npos);
  AttributionEntry entry;
  entry.label = "ocs/slacked";
  entry.makespan_ns = 100;
  entry.compute_ns = 60;
  entry.fabric_ns = 30;
  entry.idle_ns = 10;
  entry.has_band = true;
  entry.slack_share = 0.025;
  entry.band_lower = 0.0;
  entry.band_upper = 0.05;
  summary.outcomes.front().attribution.push_back(entry);
  const std::string with_attr = manifest_json(summary);
  EXPECT_NE(with_attr.find("\"attribution\": [{\"label\": \"ocs/slacked\""),
            std::string::npos);
  EXPECT_NE(with_attr.find("\"makespan_ns\": 100"), std::string::npos);
  EXPECT_NE(with_attr.find("\"compute_ns\": 60"), std::string::npos);
  EXPECT_NE(with_attr.find("\"nic_ns\": 0"), std::string::npos);
  EXPECT_NE(with_attr.find("\"slack_share\": 0.025"), std::string::npos);
  EXPECT_NE(with_attr.find("\"band\": [0, 0.05]"), std::string::npos);

  summary.outcomes.pop_back();
  EXPECT_TRUE(summary.all_ok());
}

TEST(Cli, ListIsStableAndEnumeratesTheFleet) {
  std::string first;
  std::string second;
  EXPECT_EQ(cli({"--list"}, &first), 0);
  EXPECT_EQ(cli({"--list"}, &second), 0);
  EXPECT_EQ(first, second);
  EXPECT_NE(first.find("fig3_slack_sweep"), std::string::npos);
  EXPECT_NE(first.find("table4_slack_penalty"), std::string::npos);
  EXPECT_NE(first.find("perf_sim_core"), std::string::npos);
  EXPECT_NE(first.find("experiment(s)"), std::string::npos);
}

TEST(Cli, ListHonoursTagAndPatternSelection) {
  std::string text;
  EXPECT_EQ(cli({"--list", "--tags", "table"}, &text), 0);
  EXPECT_NE(text.find("table1_lammps_baseline"), std::string::npos);
  EXPECT_EQ(text.find("fig3_slack_sweep"), std::string::npos);

  // The pre-harness binary name still selects its experiment.
  EXPECT_EQ(cli({"--list", "bench_fig3_slack_sweep"}, &text), 0);
  EXPECT_NE(text.find("fig3_slack_sweep"), std::string::npos);
  EXPECT_NE(text.find("1 experiment(s)"), std::string::npos);
}

TEST(Cli, UnknownNameIsACleanError) {
  std::string out;
  std::string err;
  EXPECT_EQ(cli({"no_such_experiment"}, &out, &err), 2);
  EXPECT_NE(err.find("no_such_experiment"), std::string::npos);
  EXPECT_NE(err.find("--list"), std::string::npos);
}

TEST(Cli, UnknownFlagIsAUsageError) {
  std::string out;
  std::string err;
  EXPECT_EQ(cli({"--frobnicate"}, &out, &err), 2);
  EXPECT_NE(err.find("--frobnicate"), std::string::npos);
}

TEST(Cli, RunsAnExperimentEndToEnd) {
  const fs::path dir = fresh_temp_dir("rsd_cli_e2e");
  std::string out;
  EXPECT_EQ(cli({"discussion_composition", "--results-dir", dir.string(), "--threads", "1"},
                &out),
            0);
  EXPECT_NE(out.find("=== discussion_composition ==="), std::string::npos);
  EXPECT_TRUE(fs::exists(dir / "discussion_composition.csv"));
  ASSERT_TRUE(fs::exists(dir / "run_manifest.json"));

  std::ifstream in{dir / "run_manifest.json"};
  std::stringstream manifest;
  manifest << in.rdbuf();
  EXPECT_NE(manifest.str().find("\"name\": \"discussion_composition\""), std::string::npos);
  EXPECT_NE(manifest.str().find("\"status\": \"ok\""), std::string::npos);
  EXPECT_NE(manifest.str().find("discussion_composition.csv"), std::string::npos);
}

TEST(Cli, TraceFlagExportsTimelineAndMetrics) {
  const fs::path dir = fresh_temp_dir("rsd_cli_trace");
  const fs::path trace_dir = dir / "trace";
  std::string out;
  EXPECT_EQ(cli({"table2_proxy_calibration", "--results-dir", dir.string(), "--threads", "1",
                 "--trace", trace_dir.string()},
                &out),
            0);

  // Chrome trace: well-formed enough to end in the traceEvents envelope and
  // name the simulator's engine tracks.
  ASSERT_TRUE(fs::exists(trace_dir / "trace.json"));
  std::ifstream jin{trace_dir / "trace.json"};
  std::stringstream json;
  json << jin.rdbuf();
  EXPECT_NE(json.str().find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.str().find("\"compute\""), std::string::npos);

  // NSys-style ops CSV with the trace::import schema.
  ASSERT_TRUE(fs::exists(trace_dir / "trace_ops.csv"));
  std::ifstream cin{trace_dir / "trace_ops.csv"};
  std::string header;
  ASSERT_TRUE(std::getline(cin, header));
  EXPECT_NE(header.find("kind"), std::string::npos);
  EXPECT_NE(header.find("submit_us"), std::string::npos);

  // Manifest v4 records the trace dir and per-experiment gpusim metrics.
  std::ifstream min{dir / "run_manifest.json"};
  std::stringstream manifest;
  manifest << min.rdbuf();
  EXPECT_NE(manifest.str().find("\"schema\": \"rsd-bench-manifest-v4\""), std::string::npos);
  EXPECT_NE(manifest.str().find("\"trace_dir\""), std::string::npos);
  EXPECT_NE(manifest.str().find("\"gpusim.ops\""), std::string::npos);
}

// RAII guard: restores an environment variable (or its absence) on scope
// exit so the knob tests cannot leak environment into the rest of the
// binary.
class ScopedEnv {
 public:
  explicit ScopedEnv(const char* name) : name_(name) {
    if (const char* v = std::getenv(name)) saved_ = v;
  }
  ~ScopedEnv() {
    if (saved_.has_value()) {
      ::setenv(name_, saved_->c_str(), 1);
    } else {
      ::unsetenv(name_);
    }
  }
  void set(const char* value) { ::setenv(name_, value, 1); }
  void unset() { ::unsetenv(name_); }

 private:
  const char* name_;
  std::optional<std::string> saved_;
};

ExperimentContext::Options quiet_options(const fs::path& dir, std::ostream* out) {
  ExperimentContext::Options options;
  options.results_dir = dir;
  options.threads = 1;
  options.out = out;
  return options;
}

TEST(Context, GpusPerChassisFlagBeatsEnvBeatsDefault) {
  const fs::path dir = fresh_temp_dir("rsd_gpc_precedence");
  std::ostringstream sink;
  ScopedEnv env{"RSD_GPUS_PER_CHASSIS"};

  env.unset();
  EXPECT_EQ(ExperimentContext{quiet_options(dir, &sink)}.gpus_per_chassis(), 0);

  env.set("4");
  EXPECT_EQ(ExperimentContext{quiet_options(dir, &sink)}.gpus_per_chassis(), 4);

  auto options = quiet_options(dir, &sink);
  options.gpus_per_chassis = 8;  // the flag wins over the environment
  EXPECT_EQ(ExperimentContext{options}.gpus_per_chassis(), 8);
}

TEST(Context, GpusPerChassisEnvRejectsNonPositiveAndGarbage) {
  const fs::path dir = fresh_temp_dir("rsd_gpc_reject");
  std::ostringstream sink;
  ScopedEnv env{"RSD_GPUS_PER_CHASSIS"};

  for (const char* bad : {"0", "-3", "abc", "4x"}) {
    env.set(bad);
    try {
      ExperimentContext ctx{quiet_options(dir, &sink)};
      FAIL() << "expected rsd::Error for RSD_GPUS_PER_CHASSIS=" << bad;
    } catch (const rsd::Error& e) {
      EXPECT_EQ(e.code(), rsd::ErrorCode::kInvalidArgument) << bad;
      EXPECT_NE(std::string{e.what()}.find("RSD_GPUS_PER_CHASSIS"), std::string::npos)
          << bad;
    }
  }
}

TEST(Cli, MalformedIntegerEnvKnobIsUsageError) {
  const fs::path dir = fresh_temp_dir("rsd_bad_env_knob");
  // --trace makes the context enable the tracer, which sizes its rings
  // from RSD_TRACE_BUFFER.
  for (const auto& [name, bad] : {std::pair{"RSD_THREADS", "2junk"},
                                  std::pair{"RSD_SIM_THREADS", "4x"},
                                  std::pair{"RSD_TRACE_BUFFER", "4x"}}) {
    ScopedEnv env{name};
    env.set(bad);
    std::string err;
    EXPECT_EQ(cli({"table2_proxy_calibration", "--results-dir", dir.string(), "--trace",
                   (dir / "trace").string()},
                  nullptr, &err),
              2)
        << name;
    EXPECT_NE(err.find(name), std::string::npos) << err;
    EXPECT_NE(err.find(bad), std::string::npos) << err;
  }
  EXPECT_FALSE(fs::exists(dir / "run_manifest.json"));
  EXPECT_FALSE(fs::exists(dir / "trace"));
}

TEST(Cli, GpusPerChassisFlagRejectsNonPositive) {
  std::string out;
  std::string err;
  EXPECT_EQ(cli({"--gpus-per-chassis", "0"}, &out, &err), 2);
  EXPECT_NE(err.find("--gpus-per-chassis"), std::string::npos);
  EXPECT_NE(err.find(">= 1"), std::string::npos);
}

// The tentpole's perf claim: every consumer of the Figure-3 response
// surface inside one invocation shares one computation.
TEST(Context, SurfaceComputedOncePerInvocation) {
  const fs::path dir = fresh_temp_dir("rsd_shared_surface");
  ExperimentContext::Options options;
  options.results_dir = dir;
  options.threads = 1;
  std::ostringstream sink;
  options.out = &sink;
  ExperimentContext ctx{options};

  const Registry& registry = Registry::global();
  const Experiment* fig3 = registry.find("fig3_slack_sweep");
  const Experiment* table4 = registry.find("table4_slack_penalty");
  ASSERT_NE(fig3, nullptr);
  ASSERT_NE(table4, nullptr);

  fig3->run(ctx);
  EXPECT_EQ(ctx.sweep_cache().sweeps_computed(), 1u);
  table4->run(ctx);  // same default sweep grid -> memory hit, no recompute
  EXPECT_EQ(ctx.sweep_cache().sweeps_computed(), 1u);
  EXPECT_GE(ctx.sweep_cache().memory_hits(), 1u);
}

}  // namespace

// rsd_perfbench: the repository's performance benchmark binary.
//
//   rsd_perfbench --workload NAME --seed N --seconds S --trace 0|1
//                 [--out-dir DIR] [--corrupt-digest]
//
// Workloads: row512_step, fabric_mix, trace_to_bounds (see README.md).
// Each is a closed loop with one client. The binary sets the workload up
// several times (timing each), then runs whole deck cycles of ops until S
// seconds have passed, and checks every op's output.
//
// --trace 0 prints the end-to-end metrics. --trace 1 alternates untraced
// deck cycles with traced ones (benchmark-side spans around every call into
// a layer) and prints the per-layer metrics plus the tracing overhead
// (traced vs untraced median op time); the spans are written to DIR at
// exit. Either way the last stdout line is one JSON object:
//   {"correct": ..., "attempted": N, "failed": N, "metrics": {...}}
// and the exit code is 0 only when every op passed its checks.
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <iostream>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "core/alloc_counter.hpp"
#include "obs/metrics.hpp"
#include "obs/quiesce.hpp"
#include "spans.hpp"
#include "stats.hpp"
#include "workload.hpp"

namespace perfbench {
namespace {

using Clock = std::chrono::steady_clock;

// Set-up repeats at least kMinSetups times and for at least kSetupSeconds;
// setup_s is the median.
constexpr std::size_t kMinSetups = 5;
constexpr double kSetupSeconds = 2.0;
constexpr std::size_t kShownFailures = 5;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool corrupt_digest = false;
  std::string out_dir = ".bench_build/perfbench/out";
};

[[noreturn]] void usage(const std::string& why) {
  std::cerr << "rsd_perfbench: " << why << "\n"
            << "usage: rsd_perfbench --workload row512_step|fabric_mix|trace_to_bounds "
               "--seed N --seconds S --trace 0|1 [--out-dir DIR] [--corrupt-digest]\n";
  std::exit(2);
}

Args parse_args(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string key = argv[i];
    if (key == "--corrupt-digest") {
      a.corrupt_digest = true;
      continue;
    }
    if (i + 1 >= argc) usage("missing value for " + key);
    const std::string val = argv[++i];
    try {
      if (key == "--workload") {
        a.workload = val;
      } else if (key == "--seed") {
        a.seed = std::stoull(val);
      } else if (key == "--seconds") {
        a.seconds = std::stod(val);
      } else if (key == "--trace") {
        a.trace = std::stoi(val) != 0;
      } else if (key == "--out-dir") {
        a.out_dir = val;
      } else {
        usage("unknown option " + key);
      }
    } catch (const std::logic_error&) {
      usage("bad value for " + key + ": " + val);
    }
  }
  if (a.workload.empty()) usage("--workload is required");
  if (!(a.seconds > 0.0)) usage("--seconds must be positive");
  return a;
}

std::unique_ptr<Workload> make_workload(const std::string& name, const Options& options) {
  if (name == "row512_step") return make_row512_step(options);
  if (name == "fabric_mix") return make_fabric_mix(options);
  if (name == "trace_to_bounds") return make_trace_to_bounds(options);
  usage("unknown workload " + name);
}

/// Closed-loop ops accumulated over one or more deck cycles.
struct Phase {
  std::vector<double> op_ms;
  std::size_t attempted = 0;
  std::size_t failed = 0;
  double wall_s = 0.0;
  Tally tally;
};

/// Run every op of the deck once, in deck order.
void run_cycle(Workload& w, Phase& p, std::uint32_t& op_id) {
  const auto start = Clock::now();
  for (std::size_t slot = 0; slot < w.deck_size(); ++slot) {
    set_current_op(++op_id);
    const auto t0 = Clock::now();
    OpResult r;
    {
      Span root{"bench", "op"};
      try {
        r = w.run_op(slot, p.tally);
      } catch (const std::exception& e) {
        r = {false, std::string{"threw: "} + e.what()};
      }
    }
    p.op_ms.push_back(seconds_since(t0) * 1e3);
    set_current_op(0);
    ++p.attempted;
    if (!r.ok) {
      if (p.failed < kShownFailures) {
        std::cout << "[perfbench] FAILED op " << slot << " (" << w.op_label(slot)
                  << "): " << r.detail << "\n";
      }
      ++p.failed;
    }
  }
  p.wall_s += seconds_since(start);
}

struct Metric {
  std::string name;
  std::string unit;
  double value;
};

double get(const Tally& t, const std::string& key) {
  const auto it = t.find(key);
  return it == t.end() ? 0.0 : it->second;
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

/// Busy share of the pool during the binary's fan-outs: task span time
/// over (batch wall x pool width).
double parallel_efficiency(const std::vector<SpanRecord>& spans, int width) {
  std::map<std::uint32_t, double> batch_wall;
  for (const SpanRecord& s : spans) {
    if (std::string{s.layer} == "exec") batch_wall[s.id] = static_cast<double>(s.end_ns - s.start_ns);
  }
  double task = 0.0;
  double wall = 0.0;
  for (const auto& [id, ns] : batch_wall) wall += ns * width;
  for (const SpanRecord& s : spans) {
    if (batch_wall.count(s.parent) != 0) task += static_cast<double>(s.end_ns - s.start_ns);
  }
  return ratio(task, wall);
}

std::string host_json(const Args& a, const Options& o, int nproc) {
  std::ostringstream h;
  h << "{\"nproc\":" << nproc << ",\"compiler\":" << json_string(compiler_id())
    << ",\"build_type\":" << json_string(RSD_PERFBENCH_BUILD_TYPE)
    << ",\"sim_threads\":" << o.sim_threads << ",\"pool_width\":" << o.pool_width
    << ",\"workload\":" << json_string(a.workload) << ",\"seed\":" << a.seed
    << ",\"seconds\":" << json_number(a.seconds) << ",\"trace\":" << (a.trace ? 1 : 0) << "}";
  return h.str();
}

std::string metrics_json(const std::vector<Metric>& metrics) {
  std::ostringstream m;
  m << "{";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    m << (i ? ", " : "") << json_string(metrics[i].name) << ": {\"value\": "
      << json_number(metrics[i].value) << ", \"unit\": " << json_string(metrics[i].unit) << "}";
  }
  m << "}";
  return m.str();
}

int run(const Args& args) {
  const int nproc = host_nproc();
  Options options;
  options.seed = args.seed;
  options.sim_threads = 1;
  options.pool_width = std::min(2, nproc);
  options.corrupt_digest = args.corrupt_digest;
  const std::string host = host_json(args, options, nproc);
  std::cout << "[perfbench] host " << host << "\n";

  std::unique_ptr<Workload> w = make_workload(args.workload, options);

  // Set-up, several times; the last one stays. In a traced run the first
  // set-up is recorded so its layer calls (sweep, fabric builds) show.
  std::vector<double> setup_s;
  Tally setup_tally;
  std::vector<SpanRecord> setup_spans;
  const auto setup_start = Clock::now();
  while (setup_s.size() < kMinSetups || seconds_since(setup_start) < kSetupSeconds) {
    setup_tally.clear();
    const bool record = args.trace && setup_s.empty();
    set_span_recording(record);
    const auto t0 = Clock::now();
    w->setup(setup_tally);
    setup_s.push_back(seconds_since(t0));
    set_span_recording(false);
    if (record) setup_spans = take_spans();
  }
  std::cout << "[perfbench] workload " << args.workload << ": deck of " << w->deck_size()
            << " ops, set-up " << median(setup_s) << " s (median of " << setup_s.size() << ")\n";

  std::uint32_t op_id = 0;
  std::vector<Metric> metrics;
  std::size_t attempted = 0;
  std::size_t failed = 0;

  if (!args.trace) {
    Phase p;
    const auto start = Clock::now();
    do {
      run_cycle(*w, p, op_id);
    } while (seconds_since(start) < args.seconds);
    attempted = p.attempted;
    failed = p.failed;
    const Tail tail = tail_with_beyond(p.op_ms);
    metrics = {
        {"setup_s", "s", median(setup_s)},
        {"ops_per_s", "1/s", ratio(static_cast<double>(p.attempted), p.wall_s)},
        {"op_p50_ms", "ms", median(p.op_ms)},
        {"op_tail_ms", "ms", tail.value},
        {"peak_rss_mb", "MiB", peak_rss_mb()},
        {"ok_frac", "frac", 1.0 - ratio(static_cast<double>(p.failed), static_cast<double>(p.attempted))},
    };
    std::cout << "[perfbench] op_tail_ms is p" << tail.percentile << " of " << tail.samples
              << " ops (" << tail.beyond_count << " beyond it); failed_frac "
              << ratio(static_cast<double>(p.failed), static_cast<double>(p.attempted)) << "\n";
  } else {
    // Untraced and traced deck cycles alternate, so host-speed drift
    // during the run hits both alike. Untraced cycles give the
    // overhead baseline and the allocation count; traced cycles record
    // spans and the obs registry delta over their ops.
    Phase u;
    Phase t;
    std::int64_t allocs = 0;
    Tally registry;
    const auto start = Clock::now();
    do {
      const std::int64_t allocs0 = rsd::alloc::allocation_count();
      run_cycle(*w, u, op_id);
      allocs += rsd::alloc::allocation_count() - allocs0;

      rsd::obs::flush_quiesce();
      const rsd::obs::MetricsSnapshot before = rsd::obs::Registry::global().snapshot();
      set_span_recording(true);
      run_cycle(*w, t, op_id);
      set_span_recording(false);
      rsd::obs::flush_quiesce();
      const rsd::obs::MetricsSnapshot delta =
          rsd::obs::metrics_delta(before, rsd::obs::Registry::global().snapshot());
      for (const rsd::obs::MetricSample& s : delta.samples) {
        if (s.kind == rsd::obs::MetricKind::kCounter) registry[s.name] += static_cast<double>(s.count);
      }
    } while (seconds_since(start) < args.seconds);
    const std::vector<SpanRecord> spans = take_spans();

    attempted = u.attempted + t.attempted;
    failed = u.failed + t.failed;
    const double n = static_cast<double>(t.attempted);
    const auto per_op = [n](double v) { return ratio(v, n); };
    const auto reg = [&registry](const char* name) { return get(registry, name); };
    const std::map<std::string, double> calls = seconds_by_call(spans);
    const std::map<std::string, double> setup_calls = seconds_by_call(setup_spans);
    const std::map<std::string, double> self = self_seconds_by_layer(spans);
    const Tally& tt = t.tally;
    const double sim_run = get(calls, "sim.ParallelEngine::run");
    const double allreduce = get(calls, "net.measure_allreduce");
    const double replay = get(calls, "wl.ReplayEngine::run");
    const double parse = get(calls, "trace.parse_ops_csv");
    const double untraced_p50 = median(u.op_ms);
    const double traced_p50 = median(t.op_ms);
    metrics = {
        {"sim.run_s", "s", per_op(sim_run)},
        {"sim.events", "count", per_op(get(tt, "sim.events"))},
        {"sim.events_per_s", "1/s", ratio(get(tt, "sim.events"), sim_run)},
        {"sim.epochs", "count", per_op(get(tt, "sim.epochs"))},
        {"sim.stall_frac", "frac",
         ratio(get(tt, "sim.stalled_partition_epochs"), get(tt, "sim.partition_epochs"))},
        {"sim.messages", "count", per_op(get(tt, "sim.messages"))},
        {"sim.horizon_gain_ms", "ms", per_op(get(tt, "sim.horizon_gain_ns")) / 1e6},
        {"exec.items", "count", per_op(reg("exec.items"))},
        {"exec.batches", "count", per_op(reg("exec.batches"))},
        {"exec.parallel_eff", "frac", parallel_efficiency(spans, options.pool_width)},
        {"net.build_fabric_s", "s", get(setup_calls, "net.build_fabric")},
        {"net.allreduce_s", "s", per_op(allreduce)},
        {"net.transfers", "count", per_op(reg("net.transfers"))},
        {"net.transfers_per_s", "1/s", ratio(get(tt, "net.allreduce_transfers"), allreduce)},
        {"net.contended_frac", "frac", ratio(reg("net.contended_transfers"), reg("net.transfers"))},
        {"net.express_frac", "frac", ratio(reg("net.express"), reg("net.transfers"))},
        {"net.route_hits", "count", per_op(reg("net.route_hits"))},
        {"net.reconfigs", "count", per_op(reg("net.reconfigs"))},
        {"net.nic_transfers", "count", per_op(reg("net.nic_transfers"))},
        {"gpusim.row_build_s", "s", per_op(get(calls, "gpusim.PartitionedRow"))},
        {"gpusim.ops", "count", per_op(reg("gpusim.ops"))},
        {"gpusim.exposed_launches", "count", per_op(reg("gpusim.exposed_launches"))},
        {"gpusim.wake_events", "count", per_op(reg("gpusim.wake_events"))},
        {"wl.replay_s", "s", per_op(replay)},
        {"wl.ops_per_s", "1/s", ratio(get(tt, "wl.program_ops"), replay)},
        {"wl.calls_delayed", "count", per_op(get(tt, "wl.calls_delayed"))},
        {"trace.parse_s", "s", per_op(parse)},
        {"trace.parse_mb_per_s", "MB/s", ratio(get(tt, "trace.bytes") / 1e6, parse)},
        {"trace.rows", "count", per_op(get(tt, "trace.rows"))},
        {"model.predict_s", "s", per_op(get(calls, "model.SlackModel::predict"))},
        {"model.band_hit_frac", "frac", ratio(get(tt, "model.in_band"), get(tt, "model.replays"))},
        {"proxy.sweep_s", "s", get(setup_calls, "proxy.run_slack_sweep")},
        {"proxy.sweep_cells", "count", get(setup_tally, "proxy.sweep_cells")},
        {"obs.critpath_s", "s", per_op(get(calls, "obs.attribute_trace"))},
        {"alloc.heap_allocs_per_op", "count",
         ratio(static_cast<double>(allocs), static_cast<double>(u.attempted))},
    };
    for (const char* layer : {"bench", "sim", "exec", "net", "gpusim", "wl", "trace", "model", "obs"}) {
      metrics.push_back({std::string{layer} + ".self_s", "s", per_op(get(self, layer))});
    }
    metrics.push_back({"op_p50_ms_untraced", "ms", untraced_p50});
    metrics.push_back({"op_p50_ms_traced", "ms", traced_p50});
    metrics.push_back({"tracing.overhead_frac", "frac", ratio(traced_p50, untraced_p50) - 1.0});

    std::error_code ec;
    std::filesystem::create_directories(args.out_dir, ec);
    const std::string span_path = args.out_dir + "/" + args.workload + "-seed" +
                                  std::to_string(args.seed) + "-spans.json";
    std::vector<SpanRecord> all = setup_spans;
    all.insert(all.end(), spans.begin(), spans.end());
    if (write_spans(span_path, all, host)) {
      std::cout << "[perfbench] wrote " << all.size() << " spans to " << span_path << "\n";
    } else {
      std::cerr << "[perfbench] could not write " << span_path << "\n";
    }
  }

  for (const Metric& m : metrics) {
    std::cout << "[perfbench] " << m.name << " = " << json_number(m.value) << " " << m.unit << "\n";
  }
  std::cout << "{\"correct\": " << (failed == 0 ? "true" : "false")
            << ", \"attempted\": " << attempted << ", \"failed\": " << failed
            << ", \"metrics\": " << metrics_json(metrics) << "}" << std::endl;
  return failed == 0 ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  const perfbench::Args args = perfbench::parse_args(argc, argv);
  try {
    return perfbench::run(args);
  } catch (const std::exception& e) {
    std::cerr << "rsd_perfbench: " << e.what() << "\n";
    return 2;
  }
}

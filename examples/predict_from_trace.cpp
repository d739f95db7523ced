// Predict the CDI slack penalty of an application from its trace file —
// the paper's method as a command-line tool.
//
//   $ ./predict_from_trace <trace.csv> [parallelism] [slack_us ...]
//
// The trace CSV uses the schema of Trace::ops_to_csv (an NSys export can
// be converted to it: one row per kernel/memcpy with timestamps and
// sizes). Without arguments, a demo trace is generated from the LAMMPS
// workload so the tool runs out of the box. A malformed argument or trace
// ends the run with a message and exit code 1, before any prediction.
#include <charconv>
#include <cmath>
#include <iostream>
#include <string>
#include <string_view>
#include <vector>

#include "apps/lammps.hpp"
#include "core/error.hpp"
#include "core/table.hpp"
#include "interconnect/link.hpp"
#include "model/slack_model.hpp"
#include "proxy/proxy.hpp"
#include "trace/import.hpp"

namespace {

/// The whole of `arg` as a T; anything else is an rsd::Error naming `what`.
template <typename T>
T parse_arg(std::string_view arg, const char* what) {
  T value{};
  const char* const end = arg.data() + arg.size();
  const auto [ptr, ec] = std::from_chars(arg.data(), end, value);
  if (ec != std::errc{} || ptr != end) {
    throw rsd::Error{rsd::ErrorCode::kInvalidArgument,
                     std::string{"bad "} + what + " '" + std::string{arg} + "'"};
  }
  return value;
}

/// A slack in microseconds that fits a SimDuration: finite and within its
/// nanosecond range (a negative slack is the model's to reject).
rsd::SimDuration parse_slack_us(std::string_view arg) {
  const double us = parse_arg<double>(arg, "slack_us");
  if (!std::isfinite(us) || std::fabs(us) * 1e3 >= 0x1p63) {
    throw rsd::Error{rsd::ErrorCode::kInvalidArgument,
                     "non-finite or out-of-range slack_us '" + std::string{arg} + "'"};
  }
  return rsd::duration::microseconds(us);
}

int run(int argc, char** argv) {
  using namespace rsd;

  const int parallelism = argc > 2 ? parse_arg<int>(argv[2], "parallelism") : 4;
  std::vector<SimDuration> slacks;
  for (int i = 3; i < argc; ++i) slacks.push_back(parse_slack_us(argv[i]));
  if (slacks.empty()) {
    slacks = {duration::microseconds(1.0), duration::microseconds(10.0),
              duration::microseconds(100.0), duration::milliseconds(1.0)};
  }

  trace::Trace app_trace;
  if (argc > 1) {
    app_trace = trace::load_ops_csv(argv[1]);
    std::cout << "loaded " << app_trace.ops().size() << " ops from " << argv[1] << "\n";
  } else {
    std::cout << "no trace given; generating a demo trace (LAMMPS box 60, 4 ranks)\n";
    apps::LammpsConfig cfg;
    cfg.box = 60;
    cfg.procs = 4;
    cfg.steps = 180;
    cfg.capture_trace = true;
    app_trace = apps::run_lammps(cfg).trace;
  }

  std::cout << "building the proxy response surface (Figure 3 sweep)...\n";
  const proxy::ProxyRunner runner;
  proxy::SweepConfig sweep_cfg;
  const auto sweep = proxy::run_slack_sweep(runner, sweep_cfg);
  const model::SlackModel slack_model{model::ResponseSurface::from_sweep(sweep)};

  Table table{"Slack / call", "Fibre reach [km]", "SP lower", "SP upper"};
  for (const SimDuration slack : slacks) {
    const auto pred = slack_model.predict(app_trace, parallelism, slack);
    table.add_row(format_duration(slack),
                  fmt_fixed(interconnect::reach_km_for_slack(slack), 2),
                  fmt_pct(pred.total.lower, 3), fmt_pct(pred.total.upper, 3));
  }
  table.print(std::cout);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(argc, argv);
  } catch (const rsd::Error& e) {
    std::cerr << "predict_from_trace: " << e.what() << "\n";
    return 1;
  }
}

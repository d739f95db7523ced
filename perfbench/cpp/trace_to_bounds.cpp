// trace_to_bounds: the paper's product — an application trace in,
// slack-penalty bounds out (Eq 1-3), validated by replaying the trace.
//
// Set-up draws nine application configurations from the seed (three each
// of the slack proxy, LAMMPS and CosmoFlow), captures their traces at zero
// slack and exports them as NSys-schema CSV text with Trace::ops_to_csv.
// The seed draws each application's sizes and calibration (matrix size,
// LAMMPS box, CosmoFlow kernel throughput and input cores) but not its structure (threads, ranks, steps, batch), so every
// draw yields the same trace rows and lanes and the cost mix of the deck
// does not depend on the seed. Set-up also builds the Eq 2-3 response surface with
// proxy::run_slack_sweep, bypassing the on-disk SweepCache.
//
// One op takes one CSV text through
//   trace::parse_ops_csv -> SlackModel::predict at 1/10/100 us
//   -> wl::from_trace -> a baseline replay plus 3 slacked replays
//   -> the Eq 2-3 band check of each slacked replay,
// with the predictions and the replays fanned out on an exec::Pool.
#include <algorithm>
#include <memory>
#include <random>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "apps/calibration.hpp"
#include "apps/cosmoflow.hpp"
#include "apps/lammps.hpp"
#include "core/units.hpp"
#include "exec/pool.hpp"
#include "interconnect/slack.hpp"
#include "model/response_surface.hpp"
#include "model/slack_model.hpp"
#include "proxy/proxy.hpp"
#include "spans.hpp"
#include "trace/import.hpp"
#include "trace/trace.hpp"
#include "wl/from_trace.hpp"
#include "wl/replay.hpp"
#include "workload.hpp"

namespace perfbench {
namespace {

constexpr double kBandTolerance = 0.01;

struct AppTrace {
  std::string label;
  std::string csv;      ///< NSys-schema text, the op's only input.
  int parallelism = 1;  ///< Submission parallelism for Eq 2.
};

class TraceToBounds final : public Workload {
 public:
  explicit TraceToBounds(const Options& options) : options_(options), pool_(options.pool_width) {
    using rsd::duration::microseconds;
    slacks_ = {microseconds(1.0), microseconds(10.0), microseconds(100.0)};
  }

  void setup(Tally& tally) override {
    std::mt19937_64 rng{options_.seed};
    rsd::proxy::SweepConfig cfg;
    cfg.slacks = {rsd::SimDuration::zero()};
    cfg.slacks.insert(cfg.slacks.end(), slacks_.begin(), slacks_.end());
    std::vector<rsd::proxy::SweepPoint> sweep;
    {
      Span span{"proxy", "run_slack_sweep"};
      sweep = rsd::proxy::run_slack_sweep(runner_, cfg, pool_);
    }
    tally["proxy.sweep_cells"] += static_cast<double>(sweep.size());
    model_ = std::make_unique<rsd::model::SlackModel>(rsd::model::ResponseSurface::from_sweep(sweep));

    deck_.clear();
    // Three draws per application: an odd deck puts the median op inside
    // one configuration's cluster of op times, not in the gap between two.
    for (int draw = 0; draw < 3; ++draw) {
      deck_.push_back(capture_proxy(rng));
      deck_.push_back(capture_lammps(rng));
      deck_.push_back(capture_cosmoflow(rng));
    }
    seeded_shuffle(deck_, rng);
  }

  [[nodiscard]] std::size_t deck_size() const override { return deck_.size(); }

  [[nodiscard]] std::string op_label(std::size_t slot) const override {
    return deck_[slot].label;
  }

  OpResult run_op(std::size_t slot, Tally& tally) override {
    const AppTrace& app = deck_[slot];
    rsd::trace::Trace trace;
    {
      Span span{"trace", "parse_ops_csv"};
      std::istringstream in{app.csv};
      trace = rsd::trace::parse_ops_csv(in);
    }
    tally["trace.rows"] += static_cast<double>(trace.ops().size());
    tally["trace.bytes"] += static_cast<double>(app.csv.size());

    std::vector<rsd::model::SlackPrediction> predictions;
    {
      Span span{"exec", "Pool::parallel_map"};
      const SpanHandle batch = SpanHandle::current();
      predictions = pool_.parallel_map(slacks_, [&](rsd::SimDuration slack) {
        SpanContext ctx{batch};
        Span task{"model", "SlackModel::predict"};
        return model_->predict(trace, app.parallelism, slack);
      });
    }
    rsd::wl::Program program;
    {
      Span span{"wl", "from_trace"};
      program = rsd::wl::from_trace(trace);
    }
    std::vector<rsd::SimDuration> replay_slacks{rsd::SimDuration::zero()};
    replay_slacks.insert(replay_slacks.end(), slacks_.begin(), slacks_.end());
    std::vector<rsd::wl::ReplayResult> replays;
    {
      Span span{"exec", "Pool::parallel_map"};
      const SpanHandle batch = SpanHandle::current();
      replays = pool_.parallel_map(replay_slacks, [&](rsd::SimDuration slack) {
        SpanContext ctx{batch};
        Span task{"wl", "ReplayEngine::run"};
        rsd::wl::ReplayOptions options;
        options.slack = slack;
        return rsd::wl::ReplayEngine{}.run(program, options);
      });
    }
    tally["wl.replays"] += static_cast<double>(replays.size());
    tally["wl.program_ops"] += static_cast<double>(replays.size() * program.total_ops());

    // Eq 1 strips the injected delay (one submitter per lane); the rest,
    // over the zero-slack baseline, is the replay's measured penalty. A
    // starvation penalty cannot be negative, so it is clamped at 0 as the
    // model clamps its surface.
    const rsd::SimDuration baseline = replays.front().runtime;
    if (baseline <= rsd::SimDuration::zero()) return {false, app.label + ": empty baseline replay"};
    const int lanes = static_cast<int>(program.lanes.size());
    OpResult result;
    for (std::size_t i = 0; i < slacks_.size(); ++i) {
      const rsd::wl::ReplayResult& slacked = replays[i + 1];
      tally["wl.calls_delayed"] += static_cast<double>(slacked.calls_delayed);
      tally["model.replays"] += 1.0;
      const rsd::SimDuration no_slack = rsd::interconnect::equation1_per_submitter(
          slacked.runtime, slacked.calls_delayed, lanes, slacks_[i]);
      const double measured = std::max(no_slack / baseline - 1.0, 0.0);
      const rsd::model::PenaltyBounds& band = predictions[i].total;
      if (band.contains(measured, kBandTolerance)) {
        tally["model.in_band"] += 1.0;
      } else if (result.ok) {
        result = {false, app.label + " @" + std::to_string(slacks_[i].us()) + "us: penalty " +
                             std::to_string(measured) + " outside Eq 2-3 band [" +
                             std::to_string(band.lower) + ", " + std::to_string(band.upper) +
                             "] +- 0.01"};
      }
    }
    return result;
  }

 private:
  AppTrace capture_proxy(std::mt19937_64& rng) {
    rsd::proxy::ProxyConfig cfg;
    cfg.matrix_n = seeded_pick(std::vector<std::int64_t>{1 << 10, 1 << 11, 1 << 12}, rng);
    cfg.threads = 2;
    cfg.min_iterations = cfg.max_iterations = 192;
    cfg.capture_trace = true;
    rsd::proxy::ProxyResult r = runner_.run(cfg);
    if (!r.fits_memory || !r.trace) throw std::runtime_error{"proxy capture failed"};
    return {"proxy/n" + std::to_string(cfg.matrix_n), export_csv(*r.trace), cfg.threads};
  }

  static AppTrace capture_lammps(std::mt19937_64& rng) {
    rsd::apps::LammpsConfig cfg;
    cfg.box = seeded_pick(std::vector<int>{100, 110, 120, 130, 140}, rng);
    cfg.procs = 8;
    cfg.steps = 240;
    cfg.capture_trace = true;
    // The calibration's jitter stream stays at its default: other streams
    // put some replays 1-3% above a [0, 0] band (see README.md).
    const rsd::apps::AppRunResult r = rsd::apps::run_lammps(cfg);
    return {"lammps/box" + std::to_string(cfg.box), export_csv(r.trace), cfg.procs};
  }

  static AppTrace capture_cosmoflow(std::mt19937_64& rng) {
    rsd::apps::CosmoflowConfig cfg;
    cfg.epochs = 1;
    cfg.batch = 4;
    cfg.train_items = cfg.validation_items = 256;
    cfg.cpu_cores = seeded_pick(std::vector<int>{1, 2}, rng);
    cfg.capture_trace = true;
    rsd::apps::CosmoflowCalibration cal;
    cal.effective_tflops = seeded_pick(std::vector<double>{1.8, 2.2, 2.6}, rng);
    const rsd::apps::AppRunResult r = rsd::apps::run_cosmoflow(cfg, cal);
    return {"cosmoflow/tf" + std::to_string(cal.effective_tflops) + "/c" +
                std::to_string(cfg.cpu_cores),
            export_csv(r.trace), cal.effective_parallelism};
  }

  static std::string export_csv(const rsd::trace::Trace& trace) {
    Span span{"trace", "ops_to_csv"};
    return trace.ops_to_csv();
  }

  Options options_;
  rsd::exec::Pool pool_;
  rsd::proxy::ProxyRunner runner_;
  std::vector<rsd::SimDuration> slacks_;
  std::unique_ptr<rsd::model::SlackModel> model_;
  std::vector<AppTrace> deck_;
};

}  // namespace

std::unique_ptr<Workload> make_trace_to_bounds(const Options& options) {
  return std::make_unique<TraceToBounds>(options);
}

}  // namespace perfbench

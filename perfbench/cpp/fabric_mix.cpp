// fabric_mix: the machine model (net::Network over net::Topology) driven
// two ways, on the sequential sim::Scheduler.
//
// An op is either
//   * one net::measure_allreduce: {ring, tree, hierarchical} x {ring,
//     fullmesh, eswitch, ocs} x {32, 64, 128} GPUs x {flat, 8 GPUs per
//     chassis with NICs}, 32 MiB per rank, over a topology built in
//     set-up; or
//   * one multi-chassis wl::ReplayEngine training replay (8, 12 or 16 GPUs
//     at 4 per chassis, on each fabric) at slack 0 and at 100 us, with an
//     obs::attribute_trace breakdown of both.
// The deck holds every configuration once; the seed orders it.
//
// Oracles: an uncontended fullmesh ring or tree allreduce must equal its
// gpusim/collective.hpp closed form to the nanosecond; both attributions
// must sum exactly to their makespans; the replay's observed slack-wake
// share must land inside its own Eq 2-3 band (+- 0.01).
#include <map>
#include <memory>
#include <random>
#include <string>
#include <tuple>
#include <vector>

#include "core/names.hpp"
#include "core/units.hpp"
#include "exec/pool.hpp"
#include "gpusim/collective.hpp"
#include "interconnect/collective.hpp"
#include "interconnect/fabric.hpp"
#include "model/response_surface.hpp"
#include "model/slack_model.hpp"
#include "obs/critpath.hpp"
#include "proxy/proxy.hpp"
#include "spans.hpp"
#include "wl/program.hpp"
#include "wl/replay.hpp"
#include "workload.hpp"

namespace perfbench {
namespace {

using rsd::net::Algorithm;
using rsd::net::FabricKind;

constexpr rsd::Bytes kBytesPerRank = 32 * rsd::kMiB;
constexpr int kRowGpusPerChassis = 8;
constexpr int kReplayGpusPerChassis = 4;
constexpr double kBandTolerance = 0.01;

struct MixOp {
  bool replay = false;
  FabricKind kind = FabricKind::kRing;
  Algorithm algorithm = Algorithm::kRing;  ///< Allreduce ops only.
  int gpus = 0;
  bool nics = false;  ///< Allreduce ops only (replays are always multi-chassis).
};

std::string label(const MixOp& op) {
  std::string s = op.replay ? "replay" : std::string{"allreduce/"} + rsd::net::to_string(op.algorithm);
  s += std::string{"/"} + rsd::net::to_string(op.kind) + "/" + std::to_string(op.gpus);
  if (!op.replay) s += op.nics ? "/nics" : "/flat";
  return s;
}

/// The 4-iteration data-parallel training step the multi-chassis
/// replays run (forward, backward, 4 MiB gradient allreduce per GPU).
rsd::wl::Program training_program(int gpus) {
  using namespace rsd::literals;
  rsd::wl::Program program;
  const rsd::NameRef fwd{"train_fwd"};
  const rsd::NameRef bwd{"train_bwd"};
  const rsd::NameRef grad{"grad_allreduce"};
  for (int i = 0; i < gpus; ++i) {
    rsd::wl::Lane lane;
    lane.context_id = i;
    lane.process_id = i;
    lane.device = i;
    lane.loop(4);
    lane.cpu(5_us);
    lane.kernel(fwd, 30_us);
    lane.kernel(bwd, 60_us);
    lane.allreduce(4 * rsd::kMiB, gpus, grad);
    lane.end_loop();
    lane.sync();
    program.lanes.push_back(std::move(lane));
  }
  return program;
}

class FabricMix final : public Workload {
 public:
  explicit FabricMix(const Options& options) : options_(options), pool_(options.pool_width) {}

  void setup(Tally& tally) override {
    topologies_.clear();
    programs_.clear();
    deck_.clear();
    const std::vector<FabricKind>& kinds = rsd::net::all_fabric_kinds();
    const std::vector<int> allreduce_gpus{32, 64, 128};
    const std::vector<int> replay_gpus{8, 12, 16};
    for (const FabricKind kind : kinds) {
      for (const int gpus : allreduce_gpus) {
        for (const bool nics : {false, true}) {
          rsd::net::FabricParams fp;
          fp.kind = kind;
          fp.gpus = gpus;
          fp.gpus_per_chassis = kRowGpusPerChassis;
          fp.chassis_nics = nics;
          Span span{"net", "build_fabric"};
          topologies_.emplace(std::make_tuple(kind, gpus, nics), rsd::net::build_fabric(fp));
        }
      }
    }
    for (const int gpus : replay_gpus) programs_.emplace(gpus, training_program(gpus));

    // The Eq 2-3 response surface the replay bands interpolate: the
    // reduced proxy grid the multi-chassis experiments use, run directly
    // (no on-disk cache) on the benchmark's pool.
    rsd::proxy::SweepConfig cfg;
    cfg.matrix_sizes = {1 << 9, 1 << 11, 1 << 13};
    cfg.thread_counts = {1, 2, 4, 8};
    cfg.slacks = {rsd::SimDuration::zero(), kSlack};
    cfg.target_compute = rsd::duration::seconds(2.0);
    std::vector<rsd::proxy::SweepPoint> sweep;
    {
      Span span{"proxy", "run_slack_sweep"};
      sweep = rsd::proxy::run_slack_sweep(runner_, cfg, pool_);
    }
    tally["proxy.sweep_cells"] += static_cast<double>(sweep.size());
    model_ = std::make_unique<rsd::model::SlackModel>(rsd::model::ResponseSurface::from_sweep(sweep));

    for (const FabricKind kind : kinds) {
      for (const Algorithm algorithm :
           {Algorithm::kRing, Algorithm::kTree, Algorithm::kHierarchical}) {
        for (const int gpus : allreduce_gpus) {
          for (const bool nics : {false, true}) {
            deck_.push_back(MixOp{false, kind, algorithm, gpus, nics});
          }
        }
      }
      for (const int gpus : replay_gpus) deck_.push_back(MixOp{true, kind, Algorithm::kRing, gpus, true});
    }
    std::mt19937_64 rng{options_.seed};
    seeded_shuffle(deck_, rng);
  }

  [[nodiscard]] std::size_t deck_size() const override { return deck_.size(); }

  OpResult run_op(std::size_t slot, Tally& tally) override {
    const MixOp& op = deck_[slot];
    return op.replay ? replay(op, tally) : allreduce(op, tally);
  }

  [[nodiscard]] std::string op_label(std::size_t slot) const override {
    return label(deck_[slot]);
  }

 private:
  static constexpr rsd::SimDuration kSlack = rsd::duration::microseconds(100.0);

  OpResult allreduce(const MixOp& op, Tally& tally) {
    const rsd::net::Topology& topo = topologies_.at(std::make_tuple(op.kind, op.gpus, op.nics));
    rsd::net::AllreduceReport report;
    {
      Span span{"net", "measure_allreduce"};
      report = rsd::net::measure_allreduce(topo, op.algorithm, kBytesPerRank, op.gpus);
    }
    tally["net.allreduce_transfers"] += static_cast<double>(report.transfers);
    if (report.transfers == 0 || report.duration <= rsd::SimDuration::zero()) {
      return {false, label(op) + ": empty allreduce"};
    }
    // Closed-form parity: on the flat full mesh every transfer of the ring
    // and tree algorithms has a dedicated, uncontended link.
    if (op.kind == FabricKind::kFullMesh && !op.nics && op.algorithm != Algorithm::kHierarchical) {
      const rsd::net::FabricParams link;
      const rsd::gpu::GpuInterconnect analytic{"fabric-link", link.link_bandwidth_gib_s,
                                               link.link_latency};
      const rsd::SimDuration closed =
          op.algorithm == Algorithm::kRing
              ? rsd::gpu::ring_allreduce_time(kBytesPerRank, op.gpus, analytic)
              : rsd::gpu::tree_allreduce_time(kBytesPerRank, op.gpus, analytic);
      if (report.duration != closed || report.contended_transfers != 0) {
        return {false, label(op) + ": " + std::to_string(report.duration.ns()) +
                           " ns != closed form " + std::to_string(closed.ns()) + " ns"};
      }
    }
    return {};
  }

  OpResult replay(const MixOp& op, Tally& tally) {
    const rsd::wl::Program& program = programs_.at(op.gpus);
    rsd::wl::NodeParams node;
    node.chassis_gpus = op.gpus;
    node.fabric_kind = op.kind;
    node.gpus_per_chassis = kReplayGpusPerChassis;
    const rsd::wl::ReplayEngine engine{node};

    rsd::wl::ReplayOptions options;
    options.capture_trace = true;
    rsd::wl::ReplayResult base;
    {
      Span span{"wl", "ReplayEngine::run"};
      base = engine.run(program, options);
    }
    rsd::obs::Attribution attr;
    {
      Span span{"obs", "attribute_trace"};
      attr = rsd::obs::attribute_trace(base.trace, base.transfers, base.runtime);
    }
    options.slack = kSlack;
    rsd::wl::ReplayResult slacked;
    {
      Span span{"wl", "ReplayEngine::run"};
      slacked = engine.run(program, options);
    }
    rsd::obs::Attribution sattr;
    {
      Span span{"obs", "attribute_trace"};
      sattr = rsd::obs::attribute_trace(slacked.trace, slacked.transfers, slacked.runtime);
    }
    rsd::model::SlackPrediction pred;
    {
      Span span{"model", "SlackModel::predict"};
      pred = model_->predict(base.trace, op.gpus, kSlack);
    }
    tally["wl.replays"] += 2.0;
    tally["wl.program_ops"] += 2.0 * static_cast<double>(program.total_ops());
    tally["wl.calls_delayed"] += static_cast<double>(slacked.calls_delayed);
    tally["model.replays"] += 1.0;

    if (attr.total_ns() != attr.makespan_ns || sattr.total_ns() != sattr.makespan_ns) {
      return {false, label(op) + ": attribution does not sum to the makespan"};
    }
    const double share = rsd::obs::slack_wake_share(attr, sattr);
    if (!pred.total.contains(share, kBandTolerance)) {
      return {false, label(op) + ": slack-wake share " + std::to_string(share) +
                         " outside Eq 2-3 band [" + std::to_string(pred.total.lower) + ", " +
                         std::to_string(pred.total.upper) + "] +- 0.01"};
    }
    tally["model.in_band"] += 1.0;
    return {};
  }

  Options options_;
  rsd::exec::Pool pool_;
  rsd::proxy::ProxyRunner runner_;
  std::map<std::tuple<FabricKind, int, bool>, rsd::net::Topology> topologies_;
  std::map<int, rsd::wl::Program> programs_;
  std::unique_ptr<rsd::model::SlackModel> model_;
  std::vector<MixOp> deck_;
};

}  // namespace

std::unique_ptr<Workload> make_fabric_mix(const Options& options) {
  return std::make_unique<FabricMix>(options);
}

}  // namespace perfbench

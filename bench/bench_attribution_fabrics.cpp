// attribution_fabrics: where does a training step's makespan go, per row
// fabric?
//
// The critical-path attribution (obs::critpath) decomposes a replayed
// program's makespan into {compute, OCS reconfiguration, fabric
// serialisation, queue wait, exposed wake, idle} — every simulated
// nanosecond booked to exactly one class. This experiment replays the
// same 8-GPU data-parallel training program on each fabric shape (ring,
// fullmesh, eswitch, ocs) and records:
//
//   * the zero-slack baseline attribution (the fabric's intrinsic cost
//     structure: the eswitch-vs-OCS gap shows up as the reconfiguration
//     component rather than as an opaque makespan delta);
//   * a 100 us slacked attribution, whose wake-component growth over the
//     baseline is the *observed* slack-penalty share — narrated against
//     the Eq 2-3 band predicted from the baseline's own trace;
//   * a per-link contention heatmap (time-bucketed busy time, transfer
//     count, and peak queue depth from the Network's usage samplers) for
//     a 32-GPU ring allreduce over each fabric, the scheduled collective
//     fabric_compare prices.
//
// Attributions land in the manifest's "attribution" block (schema v4);
// tools/report.py renders them from the manifest afterwards. All
// quantities are simulated, so the CSVs are byte-identical at any
// --threads / --sim-threads.
#include <algorithm>
#include <map>
#include <string>
#include <vector>

#include "core/csv.hpp"
#include "core/names.hpp"
#include "core/table.hpp"
#include "core/units.hpp"
#include "harness/context.hpp"
#include "harness/experiment.hpp"
#include "interconnect/collective.hpp"
#include "interconnect/fabric.hpp"
#include "model/slack_model.hpp"
#include "obs/critpath.hpp"
#include "proxy/proxy.hpp"
#include "wl/program.hpp"
#include "wl/replay.hpp"

namespace {

std::vector<rsd::net::FabricKind> selected_fabrics(const std::string& selection) {
  if (selection == "all") return rsd::net::all_fabric_kinds();
  return {rsd::net::parse_fabric_kind(selection)};
}

/// The replayed workload: `gpus` lanes, each looping fwd/bwd kernels and a
/// gradient allreduce — the chassis step every fabric experiment prices.
rsd::wl::Program training_program(int gpus) {
  using namespace rsd;
  using namespace rsd::literals;
  wl::Program program;
  const NameRef fwd{"train_fwd"};
  const NameRef bwd{"train_bwd"};
  const NameRef grad{"grad_allreduce"};
  for (int i = 0; i < gpus; ++i) {
    wl::Lane lane;
    lane.context_id = i;
    lane.process_id = i;
    lane.device = i;
    lane.loop(4);
    lane.cpu(5_us);
    lane.kernel(fwd, 30_us);
    lane.kernel(bwd, 60_us);
    lane.allreduce(4 * kMiB, gpus, grad);
    lane.end_loop();
    lane.sync();
    program.lanes.push_back(std::move(lane));
  }
  return program;
}

}  // namespace

RSD_EXPERIMENT(attribution_fabrics, "attribution_fabrics", "extension",
               "Critical-path attribution per row fabric: replay an 8-GPU training\n"
               "step on ring/fullmesh/eswitch/ocs, decompose the makespan into\n"
               "compute/reconfig/fabric/queue/wake/idle (components sum exactly),\n"
               "check the slacked replay's wake growth against its own Eq 2-3 band,\n"
               "and record per-link contention heatmaps from the network's usage\n"
               "samplers. Attributions land in the v4 manifest; see tools/report.py.") {
  using namespace rsd;
  using namespace rsd::literals;

  const std::vector<net::FabricKind> fabrics = selected_fabrics(ctx.fabric());
  constexpr int kGpus = 8;
  const wl::Program program = training_program(kGpus);
  const SimDuration slack = 100_us;

  // Small response surface bracketing the replay's shape (lane count in
  // thread_counts, the slack value in slacks); shared through the
  // invocation-wide cache, so multichassis_contention's identical grid
  // hits warm memory.
  const proxy::ProxyRunner runner;
  proxy::SweepConfig sweep_cfg;
  sweep_cfg.matrix_sizes = {1 << 9, 1 << 11, 1 << 13};
  sweep_cfg.thread_counts = {1, 2, 4, kGpus};
  sweep_cfg.slacks = {SimDuration::zero(), slack};
  sweep_cfg.target_compute = duration::seconds(2.0);
  const auto sweep = ctx.sweep_cache().get_or_run(runner, sweep_cfg, ctx.pool());
  const model::SlackModel slack_model{model::ResponseSurface::from_sweep(sweep)};

  // Interpolation + overlap tolerance, as extension_trace_replay.
  constexpr double kTolerance = 0.01;

  CsvWriter csv;
  csv.row("fabric", "phase", "makespan_ns", "compute_ns", "reconfig_ns", "fabric_ns",
          "queue_ns", "wake_ns", "idle_ns", "slack_share", "band_lower", "band_upper");
  Table table{{"Fabric", "Makespan", "Compute", "Fabric", "Reconfig", "Wake share",
               "Band"}};
  std::map<net::FabricKind, obs::Attribution> baselines;

  for (const net::FabricKind kind : fabrics) {
    wl::NodeParams node;
    node.chassis_gpus = kGpus;
    node.fabric_kind = kind;
    const wl::ReplayEngine engine{node};

    wl::ReplayOptions options;
    options.capture_trace = true;
    const wl::ReplayResult base = engine.run(program, options);
    const obs::Attribution attr =
        obs::attribute_trace(base.trace, base.transfers, base.runtime);
    baselines.emplace(kind, attr);

    options.slack = slack;
    const wl::ReplayResult slacked = engine.run(program, options);
    const obs::Attribution sattr =
        obs::attribute_trace(slacked.trace, slacked.transfers, slacked.runtime);

    // Observed slack share vs the Eq 2-3 band predicted from the
    // baseline's own trace (lane count = submission parallelism).
    const double share = obs::slack_wake_share(attr, sattr);
    const auto pred = slack_model.predict(base.trace, kGpus, slack);
    const double band_lower = std::max(pred.total.lower - kTolerance, 0.0);
    const double band_upper = pred.total.upper + kTolerance;

    harness::AttributionEntry entry;
    entry.label = std::string{net::to_string(kind)} + "/baseline";
    entry.makespan_ns = attr.makespan_ns;
    entry.compute_ns = attr.compute_ns;
    entry.reconfig_ns = attr.reconfig_ns;
    entry.nic_ns = attr.nic_ns;
    entry.fabric_ns = attr.fabric_ns;
    entry.queue_ns = attr.queue_ns;
    entry.wake_ns = attr.wake_ns;
    entry.idle_ns = attr.idle_ns;
    ctx.record_attribution(entry);

    harness::AttributionEntry slacked_entry;
    slacked_entry.label = std::string{net::to_string(kind)} + "/slacked";
    slacked_entry.makespan_ns = sattr.makespan_ns;
    slacked_entry.compute_ns = sattr.compute_ns;
    slacked_entry.reconfig_ns = sattr.reconfig_ns;
    slacked_entry.nic_ns = sattr.nic_ns;
    slacked_entry.fabric_ns = sattr.fabric_ns;
    slacked_entry.queue_ns = sattr.queue_ns;
    slacked_entry.wake_ns = sattr.wake_ns;
    slacked_entry.idle_ns = sattr.idle_ns;
    slacked_entry.has_band = true;
    slacked_entry.slack_share = share;
    slacked_entry.band_lower = band_lower;
    slacked_entry.band_upper = band_upper;
    ctx.record_attribution(slacked_entry);

    csv.row(net::to_string(kind), "baseline", attr.makespan_ns, attr.compute_ns,
            attr.reconfig_ns, attr.fabric_ns, attr.queue_ns, attr.wake_ns, attr.idle_ns,
            0.0, 0.0, 0.0);
    csv.row(net::to_string(kind), "slacked", sattr.makespan_ns, sattr.compute_ns,
            sattr.reconfig_ns, sattr.fabric_ns, sattr.queue_ns, sattr.wake_ns,
            sattr.idle_ns, share, band_lower, band_upper);

    const bool within = share >= band_lower && share <= band_upper;
    table.add_row_vec(
        {net::to_string(kind), format_duration(duration::nanoseconds(attr.makespan_ns)),
         fmt_fixed(100.0 * attr.share(obs::PathComponent::kCompute), 1) + "%",
         fmt_fixed(100.0 * attr.share(obs::PathComponent::kFabric), 1) + "%",
         fmt_fixed(100.0 * attr.share(obs::PathComponent::kReconfig), 1) + "%",
         fmt_fixed(share, 4),
         (within ? "ok [" : "OUT [") + fmt_fixed(band_lower, 4) + ", " +
             fmt_fixed(band_upper, 4) + "]"});
    ctx.out() << "[attribution] " << net::to_string(kind) << ": "
              << obs::describe(attr) << "\n";
  }
  table.print(ctx.out());

  // Narrate the tentpole eswitch-vs-OCS comparison in attribution terms:
  // the gap between the two fabrics' makespans is (to first order) the
  // OCS replay's reconfiguration component — the penalty now has an
  // address on the critical path instead of being an end-to-end delta.
  if (const auto es = baselines.find(net::FabricKind::kElectricalSwitch),
      oc = baselines.find(net::FabricKind::kOpticalCircuit);
      es != baselines.end() && oc != baselines.end()) {
    const std::int64_t gap = oc->second.makespan_ns - es->second.makespan_ns;
    ctx.out() << "[attribution] eswitch vs ocs: makespan gap "
              << format_duration(duration::nanoseconds(gap))
              << ", ocs reconfiguration component "
              << format_duration(duration::nanoseconds(oc->second.reconfig_ns)) << " ("
              << fmt_fixed(100.0 * oc->second.share(obs::PathComponent::kReconfig), 1)
              << "% of its critical path)\n";
  }

  // Per-link contention heatmap for the scheduled 32-GPU ring allreduce
  // (the collective behind fabric_compare's eswitch-vs-ocs penalty).
  const int collective_gpus = 32;
  const Bytes bytes_per_rank = 32 * kMiB;
  CsvWriter heat;
  heat.row("fabric", "link", "bucket_start_ns", "busy_ns", "transfers",
           "max_queue_depth");
  for (const net::FabricKind kind : fabrics) {
    net::FabricParams fparams;
    fparams.kind = kind;
    fparams.gpus = collective_gpus;
    const net::Topology topo = net::build_fabric(fparams);
    std::vector<net::LinkUsageSample> usage;
    const net::AllreduceReport report = net::measure_allreduce(
        topo, net::Algorithm::kRing, bytes_per_rank, collective_gpus, &usage);
    for (const net::LinkUsageSample& s : usage) {
      heat.row(net::to_string(kind), s.link, s.bucket_start_ns, s.busy_ns, s.transfers,
               s.max_queue_depth);
    }
    ctx.out() << "[heatmap] " << net::to_string(kind) << ": " << usage.size()
              << " link-buckets over " << format_duration(report.duration) << " ("
              << report.contended_transfers << " queued transfers)\n";
  }

  ctx.save_csv("attribution_fabrics", csv);
  ctx.save_csv("attribution_heatmap", heat);
}

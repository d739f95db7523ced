// multichassis_contention: what row-scale disaggregation costs once the
// machine graph is real — the numbers behind BENCH_multichassis.json.
//
// Three sections:
//   1. Row steps across chassis widths: one data-parallel training step on
//      gpu::PartitionedRow at 128 / 512 GPUs, flat vs 4-per-chassis vs
//      8-per-chassis. Multi-chassis rows price chassis-crossing ring edges
//      over their routed NIC + fibre paths, so the finish-time gap over
//      the flat row is exactly the serialisation the fibre adds. Digests
//      are byte-identical at any --sim-threads.
//   2. Contended vs uncontended replay penalty: the 8-GPU training replay
//      at 100 us injected slack, on a flat chassis (every byte priced on
//      the intra-chassis fabric) vs a multi-chassis node (memcpy payloads,
//      injected slack, and collective chunks all route through the
//      event-driven net::Network). Both observed slack-wake shares are
//      checked against the Eq 2-3 band predicted from the baseline trace;
//      the contended share may sit higher inside the band — the overshoot
//      is the fabric-contention penalty, now attributable.
//   3. NIC attribution share per fabric: the same multi-chassis replay on
//      each row-fabric shape, decomposed by obs::critpath; the nic
//      component (NIC/fibre serialisation of cross-chassis legs) is the
//      new seventh column and sums exactly with the other six.
//
// `--gpus-per-chassis` / RSD_GPUS_PER_CHASSIS overrides the multi-chassis
// width (sections 2-3, clamped so the replay node spans at least two
// chassis, and replaces the {4, 8} row sweep); `--fabric` narrows
// section 3. The manifest entry must carry net.nic_transfers and
// net.fibre_busy_ns (check_manifest.py enforces this) — if they are
// missing, the multi-chassis graph was never built.
#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "core/csv.hpp"
#include "core/names.hpp"
#include "core/table.hpp"
#include "core/units.hpp"
#include "gpusim/row.hpp"
#include "harness/context.hpp"
#include "harness/experiment.hpp"
#include "interconnect/fabric.hpp"
#include "model/slack_model.hpp"
#include "obs/critpath.hpp"
#include "proxy/proxy.hpp"
#include "wl/program.hpp"
#include "wl/replay.hpp"

namespace {

/// The 8-GPU training step the attribution experiments replay.
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

RSD_EXPERIMENT(multichassis_contention, "multichassis_contention", "extension",
               "Multi-chassis machine graphs end to end: row training steps at\n"
               "128/512 GPUs flat vs 4- vs 8-per-chassis (ring edges crossing a\n"
               "chassis priced over NIC + fibre), the 8-GPU replay's slack penalty\n"
               "contended (through the row network) vs uncontended (flat) against\n"
               "its Eq 2-3 band, and the NIC/fibre share of the critical path per\n"
               "fabric. --gpus-per-chassis overrides the chassis width.") {
  using namespace rsd;
  using namespace rsd::literals;

  const int override_width = ctx.gpus_per_chassis();
  CsvWriter csv;
  csv.row("section", "fabric", "gpus", "gpus_per_chassis", "phase", "sim_ns",
          "nic_ns", "nic_share", "slack_share", "band_lower", "band_upper",
          "messages", "epochs", "digest");

  // --- 1. Row steps: flat vs multi-chassis ring edges -------------------
  const std::vector<int> row_sizes{128, 512};
  const std::vector<int> widths =
      override_width > 0 ? std::vector<int>{0, override_width} : std::vector<int>{0, 4, 8};
  const Bytes gradient = 32 * kMiB;
  Table row_table{{"GPUs", "Per chassis", "Step finish", "Messages", "Digest"}};
  for (const int gpus : row_sizes) {
    for (const int width : widths) {
      gpu::RowParams params;
      params.gpus = gpus;
      params.sim_threads = ctx.sim_threads();
      if (width > 0) {
        params.gpus_per_chassis = width;
        params.chassis_nics = true;
      }
      gpu::PartitionedRow row{params};

      gpu::RowTraining training;
      const NameRef fwd{"row_fwd"};
      const NameRef bwd{"row_bwd"};
      training.kernels = {gpu::RowKernel{fwd, 50_us}, gpu::RowKernel{bwd, 100_us}};
      training.submit_cost = 2_us;
      training.gradient_bytes = gradient;
      training.steps = 1;

      const SimTime finish = row.run_training(training);
      csv.row("row_step", "ring", gpus, width, width > 0 ? "multichassis" : "flat",
              finish.ns(), 0, 0.0, 0.0, 0.0, 0.0, row.engine().messages_delivered(),
              row.engine().epochs(), std::to_string(row.digest()));
      row_table.add_row_vec({std::to_string(gpus),
                             width > 0 ? std::to_string(width) : "flat",
                             format_duration(finish - SimTime::zero()),
                             std::to_string(row.engine().messages_delivered()),
                             std::to_string(row.digest())});
    }
  }
  row_table.print(ctx.out());

  // --- 2. Contended vs uncontended replay penalty -----------------------
  constexpr int kGpus = 8;
  // The contended replay is defined as a multi-chassis split of the 8-GPU
  // node, so the width is clamped to kGpus/2: at 8-per-chassis the node
  // would be one chassis, no byte would cross fibre, and the manifest
  // would (correctly) fail its net.nic_*/net.fibre_* requirement.
  const int replay_width =
      override_width > 0 ? std::min(override_width, kGpus / 2) : 4;
  if (override_width > kGpus / 2) {
    ctx.out() << "[multichassis] clamping replay chassis width to " << replay_width
              << " (the " << kGpus << "-GPU replay must span >= 2 chassis)\n";
  }
  const wl::Program program = training_program(kGpus);
  const SimDuration slack = 100_us;

  const proxy::ProxyRunner runner;
  proxy::SweepConfig sweep_cfg;
  sweep_cfg.matrix_sizes = {1 << 9, 1 << 11, 1 << 13};
  sweep_cfg.thread_counts = {1, 2, 4, kGpus};
  sweep_cfg.slacks = {SimDuration::zero(), slack};
  sweep_cfg.target_compute = duration::seconds(2.0);
  const auto sweep = ctx.sweep_cache().get_or_run(runner, sweep_cfg, ctx.pool());
  const model::SlackModel slack_model{model::ResponseSurface::from_sweep(sweep)};
  constexpr double kTolerance = 0.01;  // interpolation + re-simulation noise

  Table penalty_table{{"Config", "Makespan", "NIC share", "Slack share", "Band"}};
  for (const bool multichassis : {false, true}) {
    wl::NodeParams node;
    node.chassis_gpus = kGpus;
    if (multichassis) node.gpus_per_chassis = replay_width;
    const wl::ReplayEngine engine{node};

    wl::ReplayOptions options;
    options.capture_trace = true;
    const wl::ReplayResult base = engine.run(program, options);
    const obs::Attribution attr =
        obs::attribute_trace(base.trace, base.transfers, base.runtime);

    options.slack = slack;
    const wl::ReplayResult slacked = engine.run(program, options);
    const obs::Attribution sattr =
        obs::attribute_trace(slacked.trace, slacked.transfers, slacked.runtime);

    const double share = obs::slack_wake_share(attr, sattr);
    const auto pred = slack_model.predict(base.trace, kGpus, slack);
    const double band_lower = std::max(pred.total.lower - kTolerance, 0.0);
    const double band_upper = pred.total.upper + kTolerance;
    const char* label = multichassis ? "contended" : "uncontended";

    harness::AttributionEntry entry;
    entry.label = std::string{label} + "/slacked";
    entry.makespan_ns = sattr.makespan_ns;
    entry.compute_ns = sattr.compute_ns;
    entry.reconfig_ns = sattr.reconfig_ns;
    entry.nic_ns = sattr.nic_ns;
    entry.fabric_ns = sattr.fabric_ns;
    entry.queue_ns = sattr.queue_ns;
    entry.wake_ns = sattr.wake_ns;
    entry.idle_ns = sattr.idle_ns;
    entry.has_band = true;
    entry.slack_share = share;
    entry.band_lower = band_lower;
    entry.band_upper = band_upper;
    ctx.record_attribution(entry);

    csv.row("replay_penalty", "fullmesh", kGpus, multichassis ? replay_width : 0,
            label, sattr.makespan_ns, sattr.nic_ns,
            sattr.share(obs::PathComponent::kNic), share, band_lower, band_upper, 0, 0,
            "0");
    const bool within = share >= band_lower && share <= band_upper;
    penalty_table.add_row_vec(
        {label, format_duration(duration::nanoseconds(sattr.makespan_ns)),
         fmt_fixed(100.0 * sattr.share(obs::PathComponent::kNic), 1) + "%",
         fmt_fixed(share, 4),
         (within ? "ok [" : "OUT [") + fmt_fixed(band_lower, 4) + ", " +
             fmt_fixed(band_upper, 4) + "]"});
  }
  penalty_table.print(ctx.out());

  // --- 3. NIC attribution share per fabric ------------------------------
  Table nic_table{{"Fabric", "Makespan", "NIC", "Fabric", "Reconfig"}};
  for (const net::FabricKind kind : ctx.fabrics()) {
    wl::NodeParams node;
    node.chassis_gpus = kGpus;
    node.fabric_kind = kind;
    node.gpus_per_chassis = replay_width;
    const wl::ReplayEngine engine{node};

    wl::ReplayOptions options;
    options.capture_trace = true;
    const wl::ReplayResult result = engine.run(program, options);
    const obs::Attribution attr =
        obs::attribute_trace(result.trace, result.transfers, result.runtime);

    csv.row("nic_share", net::to_string(kind), kGpus, replay_width, "baseline",
            attr.makespan_ns, attr.nic_ns, attr.share(obs::PathComponent::kNic), 0.0,
            0.0, 0.0, 0, 0, "0");
    nic_table.add_row_vec(
        {net::to_string(kind), format_duration(duration::nanoseconds(attr.makespan_ns)),
         fmt_fixed(100.0 * attr.share(obs::PathComponent::kNic), 1) + "%",
         fmt_fixed(100.0 * attr.share(obs::PathComponent::kFabric), 1) + "%",
         fmt_fixed(100.0 * attr.share(obs::PathComponent::kReconfig), 1) + "%"});
    ctx.out() << "[multichassis] " << net::to_string(kind) << " ("
              << replay_width << "/chassis): " << obs::describe(attr) << "\n";
  }
  nic_table.print(ctx.out());

  ctx.save_csv("multichassis_contention", csv);
}

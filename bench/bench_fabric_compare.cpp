// fabric_compare: row fabrics under the link-graph machine model — the
// numbers behind BENCH_fabric.json.
//
// Two sections:
//   1. Row scale: one data-parallel training step on gpu::PartitionedRow
//      at 32 / 128 / 512 GPUs for each fabric shape (ring, fullmesh,
//      eswitch, ocs). Records the deterministic finish time, message and
//      epoch counts, the row digest (byte-identical at any --sim-threads),
//      and the closed-form ring-allreduce time as the analytic
//      cross-check column.
//   2. Event-driven collectives: net::measure_allreduce of ring / tree /
//      hierarchical algorithms over each fabric's topology (32 GPUs,
//      32 MiB), with per-link contention and OCS circuit reconfiguration
//      on the books — transfers, queued transfers, reconfigurations, and
//      total link-busy time all land in the CSV and (via the Network's
//      destructor flush) in the manifest's net.* counters.
//
// Each fabric topology is built exactly once per size and shared across
// both sections (rows borrow it via RowParams::topology), so the dense
// route tables are paid for once; the CSV surfaces the fast-path
// counters (express transfers, route-table hits) per measurement.
//
// `--fabric` / RSD_FABRIC narrows the sweep to one shape; the default
// "all" runs every fabric. All CSV columns are simulated quantities, so
// the tracked output is byte-identical at any thread count
// (tests/gpusim_row_fabric_test.cpp asserts the row digests).
#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "core/csv.hpp"
#include "core/error.hpp"
#include "core/names.hpp"
#include "core/table.hpp"
#include "core/units.hpp"
#include "gpusim/collective.hpp"
#include "gpusim/row.hpp"
#include "harness/context.hpp"
#include "harness/experiment.hpp"
#include "interconnect/collective.hpp"
#include "interconnect/fabric.hpp"

RSD_EXPERIMENT(fabric_compare, "fabric_compare", "extension",
               "Row fabrics under the link-graph machine model: a training step on the "
               "partitioned row at 32/128/512 GPUs per fabric (ring, fullmesh, eswitch, "
               "ocs; deterministic digests), plus event-driven ring/tree/hierarchical "
               "allreduce over each fabric's topology with link contention and OCS "
               "reconfiguration. --fabric narrows the sweep; closed-form alpha-beta "
               "times ride along as the analytic cross-check.") {
  using namespace rsd;
  using namespace rsd::literals;

  const std::vector<net::FabricKind>& fabrics = ctx.fabrics();

  CsvWriter csv;
  csv.row("section", "fabric", "algorithm", "gpus", "sim_ns", "closed_form_ring_ns",
          "transfers", "contended_transfers", "reconfigs", "link_busy_ns", "messages",
          "epochs", "express_transfers", "route_hits", "digest");

  // Build each fabric topology exactly once and share it everywhere: the
  // rows borrow it through RowParams::topology, the collective section and
  // the closing narration reuse the 32-GPU instance. One build per
  // (fabric, size) keeps the dense route tables warm across sections. A
  // row builds the same default FabricParams (NVLink-class links, 8 GPUs
  // per chassis), so the shared graph is the one each row would have built.
  const std::vector<int> row_sizes{32, 128, 512};
  std::map<std::pair<net::FabricKind, int>, net::Topology> topologies;
  for (const net::FabricKind kind : fabrics) {
    for (const int gpus : row_sizes) {
      net::FabricParams fparams;
      fparams.kind = kind;
      fparams.gpus = gpus;
      topologies.emplace(std::make_pair(kind, gpus), net::build_fabric(fparams));
    }
  }

  // The closed forms price every transfer at the fabrics' default GPU link.
  const interconnect::LinkParams nvlink = interconnect::make_nvlink();

  // --- 1. Partitioned row: one training step per fabric x row size ------
  const Bytes gradient = 32 * kMiB;
  Table row_table{{"Fabric", "GPUs", "Step finish", "Messages", "Digest"}};
  for (const net::FabricKind kind : fabrics) {
    for (const int gpus : row_sizes) {
      const net::Topology& topo = topologies.at({kind, gpus});
      const std::uint64_t hits_before = topo.route_table_hits();
      gpu::RowParams params;
      params.gpus = gpus;
      params.fabric_kind = kind;
      params.sim_threads = ctx.sim_threads();
      params.topology = &topo;
      gpu::PartitionedRow row{params};

      gpu::RowTraining training;
      const NameRef fwd{"row_fwd"};
      const NameRef bwd{"row_bwd"};
      training.kernels = {gpu::RowKernel{fwd, 50_us}, gpu::RowKernel{bwd, 100_us}};
      training.submit_cost = 2_us;
      training.gradient_bytes = gradient;
      training.steps = 1;

      const SimTime finish = row.run_training(training);
      const SimDuration closed_form = gpu::ring_allreduce_time(gradient, gpus, nvlink);
      csv.row("row_step", net::to_string(kind), "ring", gpus, finish.ns(),
              closed_form.ns(), 0, 0, 0, 0, row.engine().messages_delivered(),
              row.engine().epochs(), 0, topo.route_table_hits() - hits_before,
              std::to_string(row.digest()));
      row_table.add_row_vec({net::to_string(kind), std::to_string(gpus),
                             format_duration(finish - SimTime::zero()),
                             std::to_string(row.engine().messages_delivered()),
                             std::to_string(row.digest())});
    }
  }
  row_table.print(ctx.out());

  // --- 2. Event-driven collectives over the modeled links ---------------
  const int collective_gpus = 32;
  const Bytes bytes_per_rank = 32 * kMiB;
  const std::vector<net::Algorithm> algorithms{
      net::Algorithm::kRing, net::Algorithm::kTree, net::Algorithm::kHierarchical};
  Table coll_table{{"Fabric", "Algorithm", "Allreduce", "Queued", "Express", "Reconfigs"}};
  for (const net::FabricKind kind : fabrics) {
    const net::Topology& topo = topologies.at({kind, collective_gpus});
    for (const net::Algorithm algorithm : algorithms) {
      const net::AllreduceReport report =
          net::measure_allreduce(topo, algorithm, bytes_per_rank, collective_gpus);
      const SimDuration closed_form =
          gpu::ring_allreduce_time(bytes_per_rank, collective_gpus, nvlink);
      csv.row("collective", net::to_string(kind), net::to_string(algorithm),
              collective_gpus, report.duration.ns(), closed_form.ns(), report.transfers,
              report.contended_transfers, report.reconfigurations,
              report.link_busy_total.ns(), 0, 0, report.express_transfers,
              report.route_hits, "0");
      coll_table.add_row_vec({net::to_string(kind), net::to_string(algorithm),
                              format_duration(report.duration),
                              std::to_string(report.contended_transfers),
                              std::to_string(report.express_transfers),
                              std::to_string(report.reconfigurations)});
    }
  }
  coll_table.print(ctx.out());

  // Narrate the tentpole comparison: what the OCS reconfiguration penalty
  // costs relative to an electrical switch on the same collective.
  if (fabrics == net::all_fabric_kinds()) {
    const net::Topology& eswitch =
        topologies.at({net::FabricKind::kElectricalSwitch, collective_gpus});
    const net::Topology& ocs =
        topologies.at({net::FabricKind::kOpticalCircuit, collective_gpus});
    const auto e = net::measure_allreduce(eswitch, net::Algorithm::kRing, bytes_per_rank,
                                          collective_gpus);
    const auto o = net::measure_allreduce(ocs, net::Algorithm::kRing, bytes_per_rank,
                                          collective_gpus);
    ctx.out() << "[fabric_compare] ring allreduce (" << collective_gpus << " GPUs, "
              << format_bytes(bytes_per_rank) << "/rank): eswitch "
              << format_duration(e.duration) << " vs ocs " << format_duration(o.duration)
              << " (" << o.reconfigurations << " circuit reconfigurations, "
              << format_duration(o.duration - e.duration) << " penalty)\n";
  }

  ctx.save_csv("fabric_compare", csv);
}

// Extension (Discussion): GPU-to-GPU allreduce cost by placement. A CDI
// chassis couples many GPUs over an NVLink-class fabric; a traditional
// layout caps coupled GPUs at 4 per node and scatters the rest across the
// network. CosmoFlow-style gradient exchanges benefit directly.
#include "core/csv.hpp"
#include "core/table.hpp"
#include "gpusim/collective.hpp"
#include "harness/context.hpp"
#include "harness/experiment.hpp"

RSD_EXPERIMENT(extension_collectives, "extension_collectives", "extension",
               "Extension: collectives by placement — best-of(ring, tree) allreduce "
               "time for N GPUs exchanging a CosmoFlow-scale gradient buffer.") {
  using namespace rsd;
  using namespace rsd::gpu;

  const auto chassis = interconnect::make_nvlink();
  const auto pcie = interconnect::make_pcie_p2p();
  const auto scattered = interconnect::make_cdi_link();  // GPUs scattered over the row

  Table table{"GPUs", "Bytes", "CDI chassis (NVLink)", "Single node (PCIe P2P)",
              "Scattered nodes", "Chassis speedup vs scattered"};
  CsvWriter csv;
  csv.row("gpus", "bytes", "chassis_us", "pcie_us", "scattered_us");

  for (const int gpus : {4, 8, 16, 24}) {
    for (const Bytes bytes : {Bytes{16 * kMiB}, Bytes{256 * kMiB}, Bytes{kGiB}}) {
      const auto t_chassis = best_allreduce_time(bytes, gpus, chassis);
      const auto t_pcie = best_allreduce_time(bytes, gpus, pcie);
      const auto t_scattered = best_allreduce_time(bytes, gpus, scattered);
      table.add_row(std::to_string(gpus), format_bytes(bytes), format_duration(t_chassis),
                    gpus <= 4 ? format_duration(t_pcie) : "(exceeds node)",
                    format_duration(t_scattered),
                    fmt_fixed(t_scattered / t_chassis, 1) + "x");
      csv.row(gpus, bytes, t_chassis.us(), t_pcie.us(), t_scattered.us());
    }
  }

  table.print(ctx.out());
  ctx.out() << "\nBeyond 4 GPUs a traditional node cannot keep the group PCIe-local at\n"
               "all; a CDI chassis keeps up to its slot count NVLink-coupled.\n";
  ctx.save_csv("extension_collectives", csv);
}

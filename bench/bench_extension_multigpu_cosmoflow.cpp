// Extension (Discussion): CosmoFlow scaled data-parallel across a CDI
// chassis vs GPUs scattered over the network. Per-step gradient allreduce
// runs on the group fabric; a traditional node caps the NVLink-coupled
// group at 4 GPUs, a chassis does not.
#include "apps/cosmoflow.hpp"
#include "core/csv.hpp"
#include "core/table.hpp"
#include "harness/context.hpp"
#include "harness/experiment.hpp"
#include "interconnect/link.hpp"

RSD_EXPERIMENT(extension_multigpu_cosmoflow, "extension_multigpu_cosmoflow", "extension",
               "Extension: multi-GPU CosmoFlow — data-parallel training time (1 epoch, "
               "mini dataset) vs GPU count, chassis fabric vs scattered network.") {
  using namespace rsd;
  using namespace rsd::apps;

  MultiGpuCosmoflowConfig cfg;
  cfg.base.epochs = 1;
  cfg.base.train_items = 256;
  cfg.base.validation_items = 0;
  cfg.base.batch = 4;
  cfg.gradient_bytes = 64 * kMiB;

  Table table{"Gradient", "GPUs", "Chassis (NVLink) [s]", "Speedup", "Scattered [s]",
              "Speedup", "Chassis advantage"};
  CsvWriter csv;
  csv.row("gradient_bytes", "gpus", "chassis_s", "scattered_s");

  // CosmoFlow's own gradients are small (~tens of MiB) — the exchange is
  // nearly free on either fabric, an honest null result. A large-model
  // variant (GiB-scale gradients) is where the chassis fabric pays.
  for (const Bytes gradient : {Bytes{64 * kMiB}, Bytes{2} * kGiB}) {
    cfg.gradient_bytes = gradient;
    double chassis_base = 0.0;
    double scattered_base = 0.0;
    for (const int gpus : {1, 2, 4, 8, 16}) {
      cfg.gpus = gpus;
      cfg.fabric = interconnect::make_nvlink();
      const double chassis_s = run_cosmoflow_multi_gpu(cfg).runtime.seconds();
      cfg.fabric = interconnect::make_cdi_link();
      const double scattered_s = run_cosmoflow_multi_gpu(cfg).runtime.seconds();
      if (gpus == 1) {
        chassis_base = chassis_s;
        scattered_base = scattered_s;
      }
      table.add_row(format_bytes(gradient), std::to_string(gpus), fmt_fixed(chassis_s, 2),
                    fmt_fixed(chassis_base / chassis_s, 2) + "x", fmt_fixed(scattered_s, 2),
                    fmt_fixed(scattered_base / scattered_s, 2) + "x",
                    fmt_fixed(scattered_s / chassis_s, 2) + "x");
      csv.row(gradient, gpus, chassis_s, scattered_s);
    }
  }

  table.print(ctx.out());
  ctx.out() << "\nCosmoFlow-size gradients make the fabric irrelevant (a null result the\n"
               "model predicts); GiB-scale gradients are where chassis coupling pays,\n"
               "and a traditional node could not couple more than 4 GPUs at all.\n";
  ctx.save_csv("extension_multigpu_cosmoflow", csv);
}

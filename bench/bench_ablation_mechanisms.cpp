// Ablation 1 (DESIGN.md): which device mechanism produces which part of
// Figure 3's shape? Runs the proxy sweep with (a) both mechanisms, (b) no
// wake penalty, (c) no exposed setup, (d) neither.
//
// Finding: the wake penalty W(gap) produces the *entire* Eq.1-normalized
// penalty — both the us-scale sensitivity of tiny kernels (via its small
// t0) and the ms-scale blow-up and saturation (via its cap). The exposed
// launch setup inflates absolute runtimes but is paid identically by the
// zero-slack baseline, so Equation 1's normalization cancels it; removing
// it actually *raises* the normalized penalty slightly (the baseline gets
// faster while the slack run's wake cost is unchanged).
#include "core/csv.hpp"
#include "core/table.hpp"
#include "harness/context.hpp"
#include "harness/experiment.hpp"
#include "interconnect/link.hpp"
#include "proxy/proxy.hpp"

RSD_EXPERIMENT(ablation_mechanisms, "ablation_mechanisms", "ablation",
               "Ablation: starvation mechanisms — normalized proxy runtime per "
               "device-model variant (1 thread).") {
  using namespace rsd;
  using namespace rsd::literals;
  using namespace rsd::proxy;

  struct Variant {
    const char* name;
    bool wake;
    bool setup;
  };
  const Variant variants[] = {
      {"full model", true, true},
      {"no wake penalty", false, true},
      {"no exposed setup", true, false},
      {"neither", false, false},
  };

  const std::vector<std::pair<std::int64_t, SimDuration>> cells{
      {1 << 9, 1_us}, {1 << 9, 10_ms}, {1 << 13, 10_ms}};

  Table table{"Variant", "2^9 @ 1us", "2^9 @ 10ms", "2^13 @ 10ms"};
  CsvWriter csv;
  csv.row("variant", "matrix_n", "slack_us", "normalized");

  for (const auto& variant : variants) {
    gpu::DeviceParams params;
    if (!variant.wake) params.wake_alpha = 0.0;
    if (!variant.setup) {
      params.kernel_setup = SimDuration::zero();
      params.copy_setup = SimDuration::zero();
    }
    const ProxyRunner runner{params};

    std::vector<std::string> row{variant.name};
    for (const auto& [n, slack] : cells) {
      ProxyConfig cfg;
      cfg.matrix_n = n;
      cfg.max_iterations = 200;
      const ProxyResult baseline = runner.run(cfg);
      cfg.slack = slack;
      const ProxyResult r = runner.run(cfg);
      const double norm = r.no_slack_time / baseline.no_slack_time;
      row.push_back(fmt_fixed(norm, 4));
      csv.row(variant.name, n, slack.us(), norm);
    }
    table.add_row_vec(row);
  }

  table.print(ctx.out());
  ctx.save_csv("ablation_mechanisms", csv);
}

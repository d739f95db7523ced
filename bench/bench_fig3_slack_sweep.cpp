// Figure 3 (a: 1 thread, b: 2 threads, c: 8 threads; plus the unplotted
// 4-thread data): proxy slack sweep. y = Equation-1-normalized runtime
// relative to the zero-slack baseline of the same (size, threads) cell.
//
// Paper anchors: 2^9 shows effects from 1 us; 2^13's first >=10% hit is at
// 10 ms; 2^15 tolerates up to 1 s; more threads shift tolerance up; 2^15
// is excluded at >= 4 threads (3 x 4 GiB x 4 > 40 GiB).
#include <map>

#include "core/csv.hpp"
#include "core/table.hpp"
#include "harness/context.hpp"
#include "harness/experiment.hpp"
#include "proxy/proxy.hpp"

RSD_EXPERIMENT(fig3_slack_sweep, "fig3_slack_sweep", "figure",
               "Figure 3 — proxy slack sweep: normalized (Eq.1) runtime vs injected "
               "slack.\nOne sub-table per thread count; '-' = excluded (device OOM).") {
  using namespace rsd;
  using namespace rsd::literals;
  using namespace rsd::proxy;

  const ProxyRunner runner;
  SweepConfig cfg;  // defaults: sizes 2^9..2^15, threads 1/2/4/8, 0..10ms
  // Cells fan out across the context pool (--threads / RSD_THREADS sets
  // the width); the surface is memoized in the shared SweepCache, so the
  // other surface-consuming experiments in this invocation reuse it.
  const auto points = ctx.sweep_cache().get_or_run(runner, cfg, ctx.pool());

  CsvWriter csv;
  csv.row("matrix_n", "threads", "slack_us", "normalized_runtime");
  std::map<int, std::map<std::int64_t, std::map<std::int64_t, double>>> grid;
  for (const auto& p : points) {
    grid[p.threads][p.matrix_n][p.slack.ns()] = p.normalized_runtime;
    csv.row(p.matrix_n, p.threads, p.slack.us(), p.normalized_runtime);
  }

  for (const auto& [threads, sizes] : grid) {
    ctx.out() << "--- " << threads << " thread(s) ---\n";
    std::vector<std::string> header{"Matrix \\ Slack"};
    for (const auto& s : cfg.slacks) header.push_back(format_duration(s));
    Table table{header};
    for (const std::int64_t n : cfg.matrix_sizes) {
      std::vector<std::string> row{std::to_string(n)};
      const auto it = sizes.find(n);
      for (const auto& s : cfg.slacks) {
        if (it == sizes.end()) {
          row.push_back("-");
        } else {
          row.push_back(fmt_fixed(it->second.at(s.ns()), 4));
        }
      }
      table.add_row_vec(row);
    }
    table.print(ctx.out());
  }

  // Section IV-B extremes: 2^15 tolerates slack up to 1 s.
  {
    ProxyConfig base;
    base.matrix_n = 1 << 15;
    ProxyConfig with_slack = base;
    with_slack.slack = 1_s;
    const auto extremes = ctx.pool().parallel_map(
        std::vector<ProxyConfig>{base, with_slack},
        [&](const ProxyConfig& c) { return runner.run(c); });
    const double norm = extremes[1].no_slack_time / extremes[0].no_slack_time;
    ctx.out() << "\n2^15 at 1 s of slack per call: normalized " << fmt_fixed(norm, 4)
              << " (paper: no effect observed up to 1 s)\n";
  }

  ctx.save_csv("fig3_slack_sweep", csv);
}

// Profile your own workload for CDI-readiness — the paper's end-to-end
// method, applied to a user-authored application:
//
//   1. Write the workload against the CUDA-like gpu::Context API.
//   2. Run it once on the simulated node with tracing on (the NSys step).
//   3. Sweep the slack proxy to build the response surface (Figure 3).
//   4. Cross-analyse trace vs surface with Equations 2-3 (Table IV) to get
//      lower/upper slack-penalty bounds — i.e., how far from its GPUs this
//      application could live.
//
// The example workload is a bulk-synchronous iterative solver: per
// iteration, a halo-sized H2D, a stencil kernel, a reduction kernel, and a
// residual D2H.
#include <iostream>

#include "core/table.hpp"
#include "gpusim/context.hpp"
#include "gpusim/device.hpp"
#include "interconnect/link.hpp"
#include "model/slack_model.hpp"
#include "proxy/proxy.hpp"
#include "sim/scheduler.hpp"
#include "sim/sync.hpp"
#include "trace/trace.hpp"

namespace {

using namespace rsd;
using namespace rsd::literals;

/// The user's application: 2 solver ranks sharing the GPU.
sim::Task<> solver_rank(gpu::Device& device, int rank, sim::WaitGroup& wg) {
  gpu::Context ctx{device, rank, nullptr, /*process_id=*/rank};
  gpu::DeviceBuffer halo = co_await ctx.dmalloc(12 * kMiB);
  gpu::DeviceBuffer residual = co_await ctx.dmalloc(2 * kMiB);

  for (int iter = 0; iter < 200; ++iter) {
    co_await sim::delay(300_us);  // CPU: assemble boundary data
    co_await ctx.memcpy_h2d(halo, "h2d_halo");
    co_await ctx.launch_sync("stencil", 2_ms);
    co_await ctx.launch_sync("reduce_residual", 80_us);
    co_await ctx.memcpy_d2h(residual, "d2h_residual");
    co_await ctx.synchronize();
  }
  co_await ctx.dfree(halo);
  co_await ctx.dfree(residual);
  wg.done();
}

}  // namespace

int main() {
  // Step 1-2: trace the workload on the simulated node.
  sim::Scheduler sched;
  gpu::Device device{sched, gpu::DeviceParams{}, interconnect::make_pcie_gen4_x16()};
  trace::TraceRecorder recorder;
  device.set_record_sink(&recorder);

  sim::WaitGroup wg{sched};
  wg.add(2);
  sched.spawn(solver_rank(device, 0, wg));
  sched.spawn(solver_rank(device, 1, wg));
  sched.run();

  const trace::Trace& app_trace = recorder.trace();
  std::cout << "traced " << app_trace.kernel_count() << " kernels and "
            << app_trace.memcpy_count() << " transfers over "
            << format_duration(app_trace.span()) << "\n\n";

  // Step 3: build the proxy response surface (the Figure 3 sweep over the
  // solver's thread counts).
  const proxy::ProxyRunner runner;
  proxy::SweepConfig sweep_cfg;
  sweep_cfg.thread_counts = {1, 2};
  const auto sweep = proxy::run_slack_sweep(runner, sweep_cfg);
  const model::SlackModel slack_model{model::ResponseSurface::from_sweep(sweep)};

  // Step 4: predict the penalty at candidate deployment distances.
  Table table{"Slack / call", "Fibre reach", "SP lower", "SP upper"};
  for (const SimDuration slack : {1_us, 10_us, 100_us, 1_ms}) {
    const auto pred = slack_model.predict(app_trace, /*parallelism=*/2, slack);
    table.add_row(format_duration(slack),
                  fmt_fixed(interconnect::reach_km_for_slack(slack), 2) + " km",
                  fmt_pct(pred.total.lower, 3), fmt_pct(pred.total.upper, 3));
  }
  table.print(std::cout);
  std::cout << "\nInterpretation: if the pessimistic (upper) penalty is acceptable at\n"
               "a given slack, the GPUs can live that far away from this solver.\n";
  return 0;
}

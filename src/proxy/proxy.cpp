#include "proxy/proxy.hpp"

#include <algorithm>
#include <memory>
#include <utility>

#include "core/error.hpp"
#include "exec/pool.hpp"
#include "gpusim/context.hpp"
#include "interconnect/slack.hpp"
#include "sim/scheduler.hpp"
#include "sim/sync.hpp"
#include "sim/task.hpp"
#include "wl/replay.hpp"

namespace rsd::proxy {

namespace {

using gpu::Context;
using gpu::DeviceBuffer;

/// The paper's synchronous main compute loop as an op-stream program: one
/// gated lane per host thread, each allocating its A/B/C matrices up front
/// and looping {H2D A, H2D B, sync kernel, D2H C, synchronize}. All lanes
/// share process 0 (OpenMP threads of one application, one CUDA context).
wl::Program build_proxy_program(std::int64_t n, int threads, std::int64_t iterations,
                                SimDuration kernel_time) {
  const Bytes matrix_bytes = static_cast<Bytes>(n) * static_cast<Bytes>(n) * sizeof(float);
  const NameRef name_a{"memcpy_A"};
  const NameRef name_b{"memcpy_B"};
  const NameRef name_c{"memcpy_C"};
  const NameRef kernel_name{"sgemm_" + std::to_string(n)};

  wl::Program program;
  // All threads begin the timed loop together (the paper found launch
  // offsets between threads showed no correlation with the penalty).
  program.gate = true;
  program.lanes.reserve(static_cast<std::size_t>(threads));
  for (int t = 0; t < threads; ++t) {
    wl::Lane& lane = program.lanes.emplace_back();
    lane.context_id = t;
    const std::int32_t a = lane.add_buffer(matrix_bytes);
    const std::int32_t b = lane.add_buffer(matrix_bytes);
    const std::int32_t c = lane.add_buffer(matrix_bytes);
    lane.loop(iterations);
    lane.h2d(a, name_a);
    lane.h2d(b, name_b);
    lane.kernel_sync(kernel_name, kernel_time);
    lane.d2h(c, name_c);
    lane.sync();
    lane.end_loop();
  }
  return program;
}

/// The optimistic variant: a copy stream and a compute stream per thread,
/// double-buffered, synchronised with events — the GPU is kept fed while
/// the host sleeps its injected slack. Event-carrying cross-stream
/// dependencies are beyond the lane-ordered IR, so this stays a bespoke
/// coroutine.
sim::Task<> async_proxy_thread(gpu::Device& device, interconnect::SlackInjector& slack, int id,
                               std::int64_t n, std::int64_t iterations, SimDuration kernel_time,
                               gpu::CommandPath path, gpu::SlackPosition slack_position,
                               sim::WaitGroup& wg, sim::WaitGroup& ready,
                               sim::Event& start_gate) {
  Context copy_ctx{device, 2 * id, &slack, /*process_id=*/0, path, slack_position};
  Context compute_ctx{device, 2 * id + 1, &slack, /*process_id=*/0, path, slack_position};
  const Bytes matrix_bytes = static_cast<Bytes>(n) * static_cast<Bytes>(n) * sizeof(float);

  DeviceBuffer a[2];
  DeviceBuffer b[2];
  DeviceBuffer c[2];
  for (int s = 0; s < 2; ++s) {
    a[s] = co_await copy_ctx.dmalloc(matrix_bytes);
    b[s] = co_await copy_ctx.dmalloc(matrix_bytes);
    c[s] = co_await copy_ctx.dmalloc(matrix_bytes);
  }

  ready.done();
  co_await start_gate.wait();

  const NameRef name_a{"memcpy_A"};
  const NameRef name_b{"memcpy_B"};
  const NameRef name_c{"memcpy_C"};
  const NameRef kernel_name{"sgemm_" + std::to_string(n)};
  std::shared_ptr<sim::Event> prev_result;
  for (std::int64_t i = 0; i < iterations; ++i) {
    const int s = static_cast<int>(i % 2);
    co_await copy_ctx.memcpy_h2d_async(a[s], name_a);
    const auto inputs_ready = co_await copy_ctx.memcpy_h2d_async(b[s], name_b);
    co_await compute_ctx.stream_wait(inputs_ready);
    co_await compute_ctx.launch(kernel_name, kernel_time);
    co_await copy_ctx.stream_wait(compute_ctx.record_event());
    const auto result_ready = co_await copy_ctx.memcpy_d2h_async(c[s], name_c);
    // Flow control: before reusing a buffer pair, the iteration that last
    // used it must have drained (pipeline depth 2).
    if (prev_result) co_await prev_result->wait();
    prev_result = result_ready;
  }
  if (prev_result) co_await prev_result->wait();

  for (int s = 0; s < 2; ++s) {
    co_await copy_ctx.dfree(a[s]);
    co_await copy_ctx.dfree(b[s]);
    co_await copy_ctx.dfree(c[s]);
  }
  wg.done();
}

/// The async pipeline simulated directly (the IR path handles the
/// synchronous loop).
void run_async_pipeline(const ProxyConfig& config, const gpu::DeviceParams& device_params,
                        const interconnect::LinkParams& link_params, ProxyResult& result) {
  sim::Scheduler sched;
  gpu::Device device{sched, device_params, link_params};
  trace::TraceRecorder recorder;
  if (config.capture_trace) device.set_record_sink(&recorder);

  interconnect::SlackInjector slack{config.slack, config.host_noise_sigma, config.seed};
  sim::WaitGroup wg{sched};
  sim::WaitGroup ready{sched};
  sim::Event start_gate{sched};
  wg.add(config.threads);
  ready.add(config.threads);

  for (int t = 0; t < config.threads; ++t) {
    sched.spawn(async_proxy_thread(device, slack, t, config.matrix_n, result.iterations,
                                   result.kernel_duration, config.command_path,
                                   config.slack_position, wg, ready, start_gate));
  }

  SimTime loop_start{};
  SimTime loop_end{};
  sched.spawn([](sim::Scheduler& s, sim::WaitGroup& group, sim::WaitGroup& rdy,
                 sim::Event& gate, SimTime& t0, SimTime& t1) -> sim::Task<> {
    co_await rdy.wait();  // all threads allocated
    t0 = s.now();
    gate.trigger();
    co_await group.wait();
    t1 = s.now();
  }(sched, wg, ready, start_gate, loop_start, loop_end));

  sched.run();
  RSD_ASSERT(sched.unfinished_count() == 0);

  result.cuda_calls_per_thread = slack.calls_delayed() / config.threads;
  result.loop_runtime = loop_end - loop_start;
  result.no_slack_time = interconnect::equation1_per_submitter(
      result.loop_runtime, slack.calls_delayed(), config.threads, config.slack);
  if (config.capture_trace) result.trace = std::move(recorder.trace());
}

}  // namespace

bool config_fits(const gpu::DeviceParams& params, std::int64_t n, int threads,
                 bool async_pipeline) {
  const Bytes matrix_bytes = static_cast<Bytes>(n) * static_cast<Bytes>(n) * sizeof(float);
  const Bytes per_thread = 3 * matrix_bytes * (async_pipeline ? 2 : 1);
  return per_thread * static_cast<Bytes>(threads) <= params.memory_capacity;
}

std::int64_t calibrate_iterations(SimDuration kernel_time, SimDuration target,
                                  std::int64_t min_iters, std::int64_t max_iters) {
  RSD_ASSERT(kernel_time > SimDuration::zero());
  const auto raw = static_cast<std::int64_t>(target / kernel_time);
  return std::clamp(raw, min_iters, max_iters);
}

ProxyRunner::ProxyRunner(gpu::DeviceParams device_params, interconnect::LinkParams link_params)
    : device_params_(std::move(device_params)), link_params_(std::move(link_params)) {}

ProxyResult ProxyRunner::run(const ProxyConfig& config) const {
  RSD_ASSERT(config.matrix_n > 0);
  RSD_ASSERT(config.threads > 0);

  ProxyResult result;
  result.matrix_n = config.matrix_n;
  result.threads = config.threads;
  result.slack = config.slack;
  result.matrix_bytes =
      static_cast<Bytes>(config.matrix_n) * static_cast<Bytes>(config.matrix_n) * sizeof(float);

  if (!config_fits(device_params_, config.matrix_n, config.threads, config.async_pipeline)) {
    result.fits_memory = false;
    return result;
  }

  // Preliminary kernel timing (the proxy's calibration step) — a pure
  // function of the device params, no simulation needed.
  result.kernel_duration = gpu::matmul_kernel_duration(device_params_, config.matrix_n);
  result.iterations = calibrate_iterations(result.kernel_duration, config.target_compute,
                                           config.min_iterations, config.max_iterations);
  result.cuda_calls_per_thread = kCudaCallsPerIteration * result.iterations;

  if (config.async_pipeline) {
    run_async_pipeline(config, device_params_, link_params_, result);
    return result;
  }

  const wl::ReplayEngine engine{
      wl::NodeParams{.device_params = device_params_, .link = link_params_}};
  wl::ReplayOptions options;
  options.slack = config.slack;
  options.host_noise_sigma = config.host_noise_sigma;
  options.seed = config.seed;
  options.command_path = config.command_path;
  options.slack_position = config.slack_position;
  options.capture_trace = config.capture_trace;
  wl::ReplayResult run = engine.run(
      build_proxy_program(config.matrix_n, config.threads, result.iterations,
                          result.kernel_duration),
      options);

  // Measured per-thread call count (kept measured rather than derived so
  // any future program shape change keeps Equation 1 honest).
  result.cuda_calls_per_thread = run.calls_delayed / config.threads;
  result.loop_runtime = run.timed_runtime;
  result.no_slack_time = interconnect::equation1_per_submitter(
      run.timed_runtime, run.calls_delayed, config.threads, config.slack);
  if (config.capture_trace) result.trace = std::move(run.trace);
  return result;
}

std::vector<SweepPoint> run_slack_sweep(const ProxyRunner& runner, const SweepConfig& config) {
  return run_slack_sweep(runner, config, exec::Pool::global());
}

std::vector<SweepPoint> run_slack_sweep(const ProxyRunner& runner, const SweepConfig& config,
                                        exec::Pool& pool) {
  struct Cell {
    std::int64_t matrix_n = 0;
    int threads = 1;
  };
  std::vector<Cell> cells;
  cells.reserve(config.matrix_sizes.size() * config.thread_counts.size());
  for (const std::int64_t n : config.matrix_sizes) {
    for (const int threads : config.thread_counts) cells.push_back({n, threads});
  }

  const auto cell_config = [&](const Cell& c, SimDuration slack) {
    ProxyConfig cfg;
    cfg.matrix_n = c.matrix_n;
    cfg.threads = c.threads;
    cfg.slack = slack;
    cfg.target_compute = config.target_compute;
    return cfg;
  };

  // Level 1: zero-slack baselines for every (size, threads) cell. These
  // decide which cells fit device memory (e.g. 2^15 at >=4 threads is
  // excluded, as in the paper).
  const std::vector<ProxyResult> baselines = pool.parallel_map(cells, [&](const Cell& c) {
    return runner.run(cell_config(c, SimDuration::zero()));
  });

  // Level 2: every non-zero slack point of the surviving cells.
  struct SlackJob {
    std::size_t cell = 0;
    SimDuration slack;
  };
  std::vector<SlackJob> jobs;
  for (std::size_t i = 0; i < cells.size(); ++i) {
    if (!baselines[i].fits_memory) continue;
    for (const SimDuration slack : config.slacks) {
      if (slack != SimDuration::zero()) jobs.push_back({i, slack});
    }
  }
  const std::vector<ProxyResult> slacked = pool.parallel_map(jobs, [&](const SlackJob& j) {
    return runner.run(cell_config(cells[j.cell], j.slack));
  });

  // Assemble in the serial loop's order; `jobs` was generated in the same
  // nested order, so a single cursor pairs each point with its result.
  std::vector<SweepPoint> points;
  std::size_t job = 0;
  for (std::size_t i = 0; i < cells.size(); ++i) {
    const ProxyResult& baseline = baselines[i];
    if (!baseline.fits_memory) continue;
    for (const SimDuration slack : config.slacks) {
      SweepPoint point;
      point.matrix_n = cells[i].matrix_n;
      point.threads = cells[i].threads;
      point.slack = slack;
      point.result = slack == SimDuration::zero() ? baseline : slacked[job++];
      point.normalized_runtime = point.result.no_slack_time / baseline.no_slack_time;
      points.push_back(std::move(point));
    }
  }
  return points;
}

}  // namespace rsd::proxy

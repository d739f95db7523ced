#include "apps/lammps.hpp"

#include <algorithm>
#include <cmath>
#include <utility>

#include "core/error.hpp"
#include "core/rng.hpp"
#include "interconnect/link.hpp"
#include "interconnect/slack.hpp"
#include "wl/replay.hpp"

namespace rsd::apps {

namespace {

/// Effective parallel speedup of t OpenMP threads at efficiency e:
/// 1 + e + e^2 + ... (diminishing returns, matching the paper's thread
/// scaling flattening out).
double omp_speedup(int threads, double efficiency) {
  double s = 0.0;
  double w = 1.0;
  for (int t = 0; t < threads; ++t) {
    s += w;
    w *= efficiency;
  }
  return s;
}

struct StepCosts {
  SimDuration cpu;
  SimDuration cpu_reneighbor;
  SimDuration halo;
  Bytes h2d_bytes;
  Bytes d2h_bytes;
  SimDuration kernel;
};

StepCosts step_costs(const LammpsConfig& cfg, const LammpsCalibration& cal) {
  const auto atoms = lammps_atoms(cfg.box);
  const double owned = static_cast<double>(atoms) / cfg.procs;
  const double speedup = omp_speedup(cfg.threads, cal.omp_efficiency);

  StepCosts c;
  c.cpu = cal.fixed_per_step +
          duration::nanoseconds(
              static_cast<std::int64_t>(cal.cpu_ns_per_atom * owned / speedup));
  c.cpu_reneighbor = duration::nanoseconds(
      static_cast<std::int64_t>(cal.reneighbor_cpu_ns_per_atom * owned / speedup));
  // Halo: six neighbor faces; surface atoms ~ owned^(2/3).
  const double surface_atoms = std::cbrt(owned) * std::cbrt(owned);
  const double halo_bytes = 6.0 * surface_atoms * cal.halo_bytes_per_surface_atom;
  c.halo = cfg.procs > 1
               ? cal.halo_latency +
                     interconnect::serialization_time(halo_bytes, cal.mpi_bandwidth_gib_s)
               : SimDuration::zero();
  c.h2d_bytes = static_cast<Bytes>(cal.h2d_bytes_per_atom * owned);
  c.d2h_bytes = static_cast<Bytes>(cal.d2h_bytes_per_atom * owned);
  c.kernel =
      duration::nanoseconds(static_cast<std::int64_t>(cal.kernel_ns_per_atom * owned));
  return c;
}

}  // namespace

wl::Program build_lammps_program(const LammpsConfig& cfg, const LammpsCalibration& cal) {
  const StepCosts costs = step_costs(cfg, cal);
  const auto neighbor_kernel = duration::nanoseconds(static_cast<std::int64_t>(
      cal.neighbor_kernel_ns_per_atom * static_cast<double>(lammps_atoms(cfg.box)) /
      cfg.procs));

  // Op names interned once per program, not once per step.
  const NameRef neighbor_meta_name{"h2d_neighbor_meta"};
  const NameRef neighbor_build_name{"neighbor_build"};
  const NameRef positions_name{"h2d_positions"};
  const NameRef pack_name{"pack_atoms"};
  const NameRef force_name{"lj_force"};
  const NameRef unpack_name{"unpack_forces"};
  const NameRef forces_name{"d2h_forces"};

  wl::Program program;
  program.lanes.reserve(static_cast<std::size_t>(cfg.procs));
  for (int rank = 0; rank < cfg.procs; ++rank) {
    // Ranks are separate OS processes: distinct process ids make their
    // kernels pay the device's context-switch cost (Figure 2's mechanism).
    wl::Lane& lane = program.lanes.emplace_back();
    lane.context_id = rank;
    lane.process_id = rank;
    const std::int32_t positions = lane.add_buffer(std::max<Bytes>(costs.h2d_bytes, 1));
    const std::int32_t forces = lane.add_buffer(std::max<Bytes>(costs.d2h_bytes, 1));
    const std::int32_t neighbor_meta = lane.add_buffer(cal.reneighbor_bytes);

    // Mean-preserving lognormal jitter: E[exp(N(-s^2/2, s))] = 1. Drawn at
    // build time in exactly the per-step order the submission loop used.
    Rng rng = Rng{cal.seed}.split(static_cast<std::uint64_t>(rank));
    const double sigma = cal.duration_jitter_sigma;
    auto jitter = [&rng, sigma] { return rng.lognormal(-0.5 * sigma * sigma, sigma); };

    for (int step = 0; step < cfg.steps; ++step) {
      const bool reneighbor = (step % cal.reneighbor_every) == 0;

      // CPU phase: integration, neighbor maintenance (OpenMP-parallel).
      lane.cpu((costs.cpu + (reneighbor ? costs.cpu_reneighbor : SimDuration::zero())) *
               jitter());

      // Halo exchange with rank neighbors, then the step barrier every rank
      // hits before touching the device (MPI collectives synchronise ranks).
      if (cfg.procs > 1) {
        lane.cpu(costs.halo);
        lane.barrier();
      }

      if (reneighbor) {
        lane.h2d(neighbor_meta, neighbor_meta_name);
        lane.kernel(neighbor_build_name, neighbor_kernel * jitter());
      }
      lane.h2d(positions, positions_name);
      lane.kernel(pack_name, cal.pack_kernel * jitter());
      lane.kernel_sync(force_name, costs.kernel * jitter());
      lane.kernel(unpack_name, cal.unpack_kernel * jitter());
      lane.d2h(forces, forces_name);
      lane.sync();
    }
  }
  return program;
}

AppRunResult run_lammps(const LammpsConfig& config, const LammpsCalibration& cal,
                        const gpu::DeviceParams& device_params) {
  RSD_ASSERT(config.box > 0 && config.procs > 0 && config.threads > 0 && config.steps > 0);

  const wl::ReplayEngine engine{wl::NodeParams{.device_params = device_params}};
  wl::ReplayOptions options;
  options.slack = config.slack;
  options.capture_trace = config.capture_trace;
  wl::ReplayResult run = engine.run(build_lammps_program(config, cal), options);

  AppRunResult result;
  result.runtime = run.runtime;
  result.steps = config.steps;
  result.cuda_calls = run.calls_delayed;
  // Equation 1 removes the per-rank injected slack from the critical path.
  result.no_slack_runtime = interconnect::equation1_per_submitter(
      result.runtime, run.calls_delayed, config.procs, config.slack);
  if (config.capture_trace) result.trace = std::move(run.trace);
  return result;
}

}  // namespace rsd::apps

#include "apps/scaling.hpp"

#include <cmath>

#include "core/error.hpp"
#include "exec/pool.hpp"
#include "interconnect/link.hpp"

namespace rsd::apps {

std::vector<ScalingPoint> lammps_proc_scaling(int box, const std::vector<int>& proc_counts,
                                              int steps, const LammpsCalibration& cal) {
  return lammps_proc_scaling(box, proc_counts, steps, cal, exec::Pool::global());
}

std::vector<ScalingPoint> lammps_proc_scaling(int box, const std::vector<int>& proc_counts,
                                              int steps, const LammpsCalibration& cal,
                                              exec::Pool& pool) {
  RSD_ASSERT(!proc_counts.empty());
  std::vector<ScalingPoint> points = pool.parallel_map(proc_counts, [&](const int procs) {
    LammpsConfig cfg;
    cfg.box = box;
    cfg.procs = procs;
    cfg.threads = 1;
    cfg.steps = steps;
    const AppRunResult r = run_lammps(cfg, cal);
    ScalingPoint p;
    p.procs = procs;
    p.threads = 1;
    p.runtime = r.runtime;
    return p;
  });
  // Normalize against the first point (the sweep's baseline), exactly as
  // the serial loop did.
  const double baseline = points.front().runtime.seconds();
  for (auto& p : points) p.normalized = p.runtime.seconds() / baseline;
  return points;
}

std::vector<ScalingPoint> lammps_thread_scaling(int box, int procs,
                                                const std::vector<int>& thread_counts,
                                                int steps, const LammpsCalibration& cal) {
  return lammps_thread_scaling(box, procs, thread_counts, steps, cal, exec::Pool::global());
}

std::vector<ScalingPoint> lammps_thread_scaling(int box, int procs,
                                                const std::vector<int>& thread_counts,
                                                int steps, const LammpsCalibration& cal,
                                                exec::Pool& pool) {
  RSD_ASSERT(!thread_counts.empty());
  std::vector<ScalingPoint> points = pool.parallel_map(thread_counts, [&](const int threads) {
    LammpsConfig cfg;
    cfg.box = box;
    cfg.procs = procs;
    cfg.threads = threads;
    cfg.steps = steps;
    const AppRunResult r = run_lammps(cfg, cal);
    ScalingPoint p;
    p.procs = procs;
    p.threads = threads;
    p.runtime = r.runtime;
    return p;
  });
  const double baseline = points.front().runtime.seconds();
  for (auto& p : points) p.normalized = p.runtime.seconds() / baseline;
  return points;
}

std::vector<CoreScalingPoint> cosmoflow_core_scaling(const std::vector<int>& core_counts,
                                                     const CosmoflowConfig& base,
                                                     const CosmoflowCalibration& cal) {
  return cosmoflow_core_scaling(core_counts, base, cal, exec::Pool::global());
}

std::vector<CoreScalingPoint> cosmoflow_core_scaling(const std::vector<int>& core_counts,
                                                     const CosmoflowConfig& base,
                                                     const CosmoflowCalibration& cal,
                                                     exec::Pool& pool) {
  RSD_ASSERT(!core_counts.empty());
  std::vector<CoreScalingPoint> points = pool.parallel_map(core_counts, [&](const int cores) {
    CosmoflowConfig cfg = base;
    cfg.cpu_cores = cores;
    const AppRunResult r = run_cosmoflow(cfg, cal);
    CoreScalingPoint p;
    p.cores = cores;
    p.runtime = r.runtime;
    return p;
  });
  const double best = points.back().runtime.seconds();
  for (auto& p : points) p.normalized = p.runtime.seconds() / best;
  return points;
}

std::vector<WeakScalingPoint> lammps_weak_scaling(const LammpsConfig& per_unit,
                                                  const std::vector<int>& unit_counts,
                                                  const InternodeParams& net,
                                                  const LammpsCalibration& cal) {
  RSD_ASSERT(!unit_counts.empty());
  // One unit's runtime comes from the full simulation; replicas add only
  // the per-step inter-node exchange (units are independent devices).
  const AppRunResult unit = run_lammps(per_unit, cal);

  const SimDuration halo = interconnect::serialization_time(
      static_cast<double>(net.halo_bytes), net.network_gib_s);

  std::vector<WeakScalingPoint> points;
  double baseline = 0.0;
  for (const int units : unit_counts) {
    RSD_ASSERT(units >= 1);
    SimDuration per_step_exchange = SimDuration::zero();
    if (units > 1) {
      const auto stages = static_cast<std::int64_t>(
          std::ceil(std::log2(static_cast<double>(units))));
      per_step_exchange = net.collective_latency * stages + halo;
    }
    WeakScalingPoint p;
    p.units = units;
    p.runtime = unit.runtime + per_step_exchange * static_cast<std::int64_t>(per_unit.steps);
    if (baseline == 0.0) baseline = p.runtime.seconds();
    p.efficiency = baseline / p.runtime.seconds();
    points.push_back(p);
  }
  return points;
}

}  // namespace rsd::apps

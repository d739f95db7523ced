// CosmoFlow workload generator (the paper's GPU-dominant AI application,
// Section III-D.2).
//
// Replays the TensorFlow/Horovod execution pattern the paper observed in
// NSys traces: per training step the CPU submits a long *sequence* of
// varying-sized kernels in quick succession (forward convs, backward
// convs, dense heads, optimizer, gradient staging), then waits for the
// sequence while doing background work. Launching takes ~1/7 of the
// sequence's duration, which the paper treats as an effective kernel
// parallelism of 4. Data arrives in large prefetch chunks (the paper's
// "mini" dataset: 1024 train + 1024 validation items, batch 4, 5 epochs).
//
// The layer list and their FLOP ratios come from CosmoFlow's full-scale
// architecture (cosmoflow_stages() in cosmoflow.cpp: seven conv stages over
// a 128^3 input).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "apps/calibration.hpp"
#include "apps/lammps.hpp"  // AppRunResult
#include "core/names.hpp"
#include "core/units.hpp"
#include "gpusim/collective.hpp"
#include "gpusim/device.hpp"
#include "interconnect/fabric.hpp"
#include "wl/program.hpp"

namespace rsd::apps {

struct CosmoflowConfig {
  int epochs = 5;
  int train_items = 1024;
  int validation_items = 1024;
  int batch = 4;
  int cpu_cores = 2;  ///< Input-pipeline cores; >2 shows no benefit (IV-A).
  SimDuration slack = SimDuration::zero();
  bool capture_trace = false;
};

/// One kernel of the per-step sequence, with its duration model. `ref` is
/// the interned form of `name`, built once so the per-step launch loop
/// pays no interning cost.
struct CosmoflowKernel {
  std::string name;
  SimDuration duration;
  NameRef ref;
};

/// The per-training-step kernel sequence (forward + backward + optimizer),
/// derived from the CNN's layer FLOPs at full CosmoFlow scale.
[[nodiscard]] std::vector<CosmoflowKernel> cosmoflow_step_kernels(
    const CosmoflowCalibration& cal, int batch);

/// Emit the training run as a single-lane op-stream program (the one
/// TensorFlow submission thread), per-kernel jitter drawn at build time.
[[nodiscard]] wl::Program build_cosmoflow_program(const CosmoflowConfig& config,
                                                  const CosmoflowCalibration& cal = {});

[[nodiscard]] AppRunResult run_cosmoflow(const CosmoflowConfig& config,
                                         const CosmoflowCalibration& cal = {},
                                         const gpu::DeviceParams& device_params = {});

/// Multi-GPU data-parallel training (Horovod-style synchronous SGD): each
/// GPU in a chassis runs the per-step kernel sequence on its own shard and
/// the group ring-allreduces the gradients every step over the chassis
/// fabric. The Discussion's argument for composing many closely-coupled
/// GPUs, made runnable.
struct MultiGpuCosmoflowConfig {
  CosmoflowConfig base;  ///< Global dataset; steps split across GPUs.
  int gpus = 4;
  gpu::GpuInterconnect fabric = gpu::make_nvlink();
  Bytes gradient_bytes = 32 * kMiB;  ///< Exchanged per step per GPU.
};

/// Emit the data-parallel run as one looped lane per GPU (identical steps,
/// so the program uses the IR's repeat structure instead of unrolling).
[[nodiscard]] wl::Program build_cosmoflow_multi_gpu_program(
    const MultiGpuCosmoflowConfig& config, const CosmoflowCalibration& cal = {});

[[nodiscard]] AppRunResult run_cosmoflow_multi_gpu(const MultiGpuCosmoflowConfig& config,
                                                   const CosmoflowCalibration& cal = {});

/// Row-scale data-parallel CosmoFlow on the partitioned engine
/// (gpu::PartitionedRow): one partition per chassis of 8 GPUs, the
/// per-step kernel sequence partition-local, gradients ring-allreduced as
/// local events inside a chassis and as cross-partition messages between
/// chassis. This is the path that scales to hundreds of GPUs; the result
/// digest is byte-identical at any `sim_threads`.
struct RowCosmoflowConfig {
  int gpus = 8;
  int steps = 4;  ///< Training steps (full epochs are sweep material).
  gpu::GpuInterconnect fabric = gpu::make_nvlink();
  /// Row interconnect shape (net::build_fabric); the default ring keeps
  /// the historical row timing.
  net::FabricKind fabric_kind = net::FabricKind::kRing;
  Bytes gradient_bytes = 32 * kMiB;
  int batch = 4;
  int sim_threads = 0;          ///< <= 0: RSD_SIM_THREADS, else 1.
  std::uint64_t jitter_seed = 0;  ///< Worker-claim jitter (stress tests).
};

struct RowCosmoflowResult {
  SimDuration runtime;      ///< Row finish time (max over ranks).
  std::uint64_t digest;     ///< Per-rank step-completion fingerprint.
  std::uint64_t events;     ///< Aggregate engine events executed.
  std::uint64_t messages;   ///< Chunks exchanged between chassis partitions.
};

[[nodiscard]] RowCosmoflowResult run_cosmoflow_row(const RowCosmoflowConfig& config,
                                                   const CosmoflowCalibration& cal = {});

}  // namespace rsd::apps

#include "apps/cosmoflow.hpp"

#include <algorithm>
#include <cmath>
#include <utility>

#include "core/error.hpp"
#include "core/rng.hpp"
#include "gpusim/row.hpp"
#include "interconnect/slack.hpp"
#include "wl/replay.hpp"

namespace rsd::apps {

namespace {

/// CosmoFlow architecture at full scale (Mathuriya et al. 2018): 7 conv
/// stages over a 128^3 x 4-channel volume, filters doubling to a cap of
/// 256, each followed by 2x2x2 pooling, then small dense heads.
struct ConvStage {
  std::int64_t volume;  ///< Input spatial extent.
  std::int64_t in_ch;
  std::int64_t out_ch;
};

std::vector<ConvStage> cosmoflow_stages() {
  std::vector<ConvStage> stages;
  std::int64_t volume = 128;
  std::int64_t in_ch = 4;
  const std::int64_t filters[] = {32, 64, 128, 256, 256, 256, 256};
  for (const std::int64_t f : filters) {
    stages.push_back(ConvStage{volume, in_ch, f});
    in_ch = f;
    volume /= 2;
  }
  return stages;
}

SimDuration flops_to_duration(double flops, const CosmoflowCalibration& cal) {
  const double seconds = flops / (cal.effective_tflops * 1e12);
  return duration::microseconds(20.0) + duration::seconds(seconds);
}

}  // namespace

std::vector<CosmoflowKernel> cosmoflow_step_kernels(const CosmoflowCalibration& cal,
                                                    int batch) {
  std::vector<CosmoflowKernel> kernels;
  const auto add = [&kernels](std::string name, SimDuration d) {
    NameRef ref{name};
    kernels.push_back({std::move(name), d, ref});
  };
  const auto stages = cosmoflow_stages();
  int idx = 1;
  for (const auto& s : stages) {
    const double voxels = static_cast<double>(s.volume) * s.volume * s.volume;
    const double fwd_flops =
        2.0 * batch * voxels * static_cast<double>(s.out_ch) * s.in_ch * 27.0;
    const std::string tag = "conv" + std::to_string(idx);
    add(tag + "_fwd", flops_to_duration(fwd_flops, cal));
    add(tag + "_pool", flops_to_duration(batch * voxels * s.out_ch, cal));
    add(tag + "_bwd_data", flops_to_duration(fwd_flops, cal));
    add(tag + "_bwd_filter", flops_to_duration(fwd_flops, cal));
    ++idx;
  }
  // Dense heads (256 -> 128 -> 64 -> 4) + loss + optimizer + Horovod
  // gradient exchange staging.
  const double dense_flops = 2.0 * batch * (256.0 * 128 + 128.0 * 64 + 64.0 * 4);
  add("dense_fwd", flops_to_duration(dense_flops, cal));
  add("dense_bwd", flops_to_duration(2.0 * dense_flops, cal));
  add("mse_loss", flops_to_duration(batch * 64.0, cal));
  add("sgd_update", flops_to_duration(3.0e6, cal));
  for (int chunk = 0; chunk < 4; ++chunk) {
    add("allreduce_pack_" + std::to_string(chunk), flops_to_duration(1.5e6, cal));
  }
  return kernels;
}

wl::Program build_cosmoflow_program(const CosmoflowConfig& cfg,
                                    const CosmoflowCalibration& cal) {
  Rng rng{0xC05F10ULL};
  const auto train_kernels = cosmoflow_step_kernels(cal, cfg.batch);

  // An input pipeline starved of cores slows every kernel submission; two
  // cores keep it fed, more add nothing (Section IV-A).
  const double core_slowdown =
      cfg.cpu_cores >= cal.required_cores
          ? 1.0
          : static_cast<double>(cal.required_cores) / std::max(cfg.cpu_cores, 1);
  const SimDuration submit_cost = cal.submit_cost * core_slowdown;

  const int train_steps_per_epoch = cfg.train_items / cfg.batch;
  const int val_steps_per_epoch = cfg.validation_items / cfg.batch;
  const int steps_per_prefetch = std::max(1, cal.samples_per_prefetch / cfg.batch);

  // Transfer names, interned once for the whole program.
  const NameRef prefetch_name{"h2d_prefetch"};
  const NameRef control_name{"d2h_control"};
  const NameRef weight_sync_name{"h2d_weight_sync"};
  const NameRef checkpoint_name{"d2h_checkpoint"};

  wl::Program program;
  wl::Lane& lane = program.lanes.emplace_back();
  const Bytes prefetch_bytes =
      static_cast<Bytes>(cal.samples_per_prefetch) * cal.bytes_per_sample;
  const std::int32_t staging = lane.add_buffer(prefetch_bytes);
  const std::int32_t weights = lane.add_buffer(cal.weight_sync_bytes);
  const std::int32_t checkpoint = lane.add_buffer(cal.checkpoint_bytes);
  const std::int32_t control = lane.add_buffer(cal.small_transfer_bytes);

  for (int epoch = 0; epoch < cfg.epochs; ++epoch) {
    int weight_syncs_done = 0;
    int checkpoints_done = 0;
    const int total_steps = train_steps_per_epoch + val_steps_per_epoch;

    for (int step = 0; step < total_steps; ++step) {
      const bool training = step < train_steps_per_epoch;

      // Prefetch a chunk of samples (large H2D, Table III's biggest bin).
      if (step % steps_per_prefetch == 0) lane.h2d(staging, prefetch_name);

      // A starved input pipeline (fewer cores than the pipeline needs)
      // serialises sample preparation with submission; with enough cores
      // it overlaps the previous step's GPU work and costs nothing here.
      if (cfg.cpu_cores < cal.required_cores) lane.cpu(cal.input_pipeline_work);

      // Submit the kernel sequence in quick succession; 10% lognormal
      // jitter reproduces the duration spread NSys sees per kernel.
      for (const auto& k : train_kernels) {
        if (!training && k.name.find("bwd") != std::string::npos) continue;
        if (!training &&
            (k.name.find("sgd") != std::string::npos ||
             k.name.find("allreduce") != std::string::npos)) {
          continue;
        }
        const double jitter = rng.lognormal(0.0, 0.1);
        lane.cpu(submit_cost);
        lane.kernel(k.ref, k.duration * jitter);
      }

      // Control-plane readbacks (loss, metrics).
      for (int i = 0; i < cal.small_transfers_per_step; ++i) {
        lane.d2h(control, control_name);
      }

      // Interleave periodic weight syncs / checkpoints through the epoch.
      if (training) {
        const int due_syncs =
            static_cast<int>(static_cast<std::int64_t>(cal.weight_syncs_per_epoch) *
                             (step + 1) / train_steps_per_epoch);
        while (weight_syncs_done < due_syncs) {
          lane.h2d(weights, weight_sync_name);
          ++weight_syncs_done;
        }
        const int due_ckpt =
            static_cast<int>(static_cast<std::int64_t>(cal.checkpoint_transfers_per_epoch) *
                             (step + 1) / train_steps_per_epoch);
        while (checkpoints_done < due_ckpt) {
          lane.d2h(checkpoint, checkpoint_name);
          ++checkpoints_done;
        }
      }

      lane.sync();
    }
  }
  return program;
}

wl::Program build_cosmoflow_multi_gpu_program(const MultiGpuCosmoflowConfig& config,
                                              const CosmoflowCalibration& cal) {
  const int global_steps = config.base.train_items / config.base.batch;
  const int steps = std::max(1, global_steps / config.gpus) * config.base.epochs;
  const auto kernels = cosmoflow_step_kernels(cal, config.base.batch);
  const NameRef shard_name{"h2d_shard"};
  const NameRef allreduce_name{"horovod_allreduce"};

  wl::Program program;
  program.lanes.reserve(static_cast<std::size_t>(config.gpus));
  for (int rank = 0; rank < config.gpus; ++rank) {
    wl::Lane& lane = program.lanes.emplace_back();
    lane.context_id = rank;
    lane.process_id = rank;
    lane.device = rank;
    const std::int32_t staging = lane.add_buffer(
        static_cast<Bytes>(cal.samples_per_prefetch) * cal.bytes_per_sample);

    // Every step is identical (no jitter), so the program stays compact as
    // a loop instead of unrolling: each worker runs its shard's kernel
    // sequence, joins the step barrier, and rank 0 drives the allreduce.
    lane.loop(steps);
    lane.h2d(staging, shard_name);
    for (const auto& k : kernels) {
      lane.cpu(cal.submit_cost);
      lane.kernel(k.ref, k.duration);
    }
    lane.sync();
    lane.barrier();
    if (rank == 0) {
      lane.allreduce(config.gradient_bytes, config.gpus, allreduce_name);
    }
    lane.barrier();  // all wait for the exchange
    lane.end_loop();
  }
  return program;
}

AppRunResult run_cosmoflow_multi_gpu(const MultiGpuCosmoflowConfig& config,
                                     const CosmoflowCalibration& cal) {
  RSD_ASSERT(config.gpus >= 1);
  const int global_steps = config.base.train_items / config.base.batch;
  const int steps = std::max(1, global_steps / config.gpus) * config.base.epochs;

  wl::NodeParams node;
  node.chassis_gpus = config.gpus;
  node.fabric = config.fabric;
  const wl::ReplayEngine engine{std::move(node)};
  wl::ReplayOptions options;
  options.inject_slack = false;  // the workers run with no injector attached
  options.capture_trace = config.base.capture_trace;
  wl::ReplayResult run =
      engine.run(build_cosmoflow_multi_gpu_program(config, cal), options);

  AppRunResult result;
  result.runtime = run.runtime;
  result.steps = steps;
  if (config.base.capture_trace) result.trace = std::move(run.trace);
  return result;
}

RowCosmoflowResult run_cosmoflow_row(const RowCosmoflowConfig& config,
                                     const CosmoflowCalibration& cal) {
  RSD_ASSERT(config.gpus >= 1 && config.steps >= 1);

  gpu::RowParams params;
  params.gpus = config.gpus;
  params.fabric_kind = config.fabric_kind;
  params.sim_threads = config.sim_threads;
  gpu::PartitionedRow row{params};

  gpu::RowTraining training;
  for (const CosmoflowKernel& k : cosmoflow_step_kernels(cal, config.batch)) {
    training.kernels.push_back(gpu::RowKernel{k.ref, k.duration});
  }
  training.submit_cost = cal.submit_cost;
  training.gradient_bytes = config.gradient_bytes;
  training.steps = config.steps;

  const SimTime finish = row.run_training(training);

  RowCosmoflowResult result;
  result.runtime = finish - SimTime::zero();
  result.digest = row.digest();
  result.events = row.engine().executed_events();
  result.messages = row.engine().messages_delivered();
  return result;
}

AppRunResult run_cosmoflow(const CosmoflowConfig& config, const CosmoflowCalibration& cal,
                           const gpu::DeviceParams& device_params) {
  RSD_ASSERT(config.epochs > 0 && config.batch > 0);
  RSD_ASSERT(config.train_items % config.batch == 0);

  const wl::ReplayEngine engine{wl::NodeParams{.device_params = device_params}};
  wl::ReplayOptions options;
  options.slack = config.slack;
  options.capture_trace = config.capture_trace;
  wl::ReplayResult run = engine.run(build_cosmoflow_program(config, cal), options);

  AppRunResult result;
  result.runtime = run.runtime;
  result.steps = static_cast<std::int64_t>(config.epochs) *
                 (config.train_items + config.validation_items) / config.batch;
  result.cuda_calls = run.calls_delayed;
  // One submitter: Equation 1 subtracts every injected call.
  result.no_slack_runtime = interconnect::equation1_per_submitter(
      result.runtime, run.calls_delayed, /*submitters=*/1, config.slack);
  if (config.capture_trace) result.trace = std::move(run.trace);
  return result;
}

}  // namespace rsd::apps

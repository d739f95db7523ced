#include "apps/cosmoflow.hpp"

#include <gtest/gtest.h>

#include <set>

#include "apps/scaling.hpp"
#include "trace/analysis.hpp"

namespace rsd::apps {
namespace {

using namespace rsd::literals;

CosmoflowConfig quick() {
  CosmoflowConfig cfg;
  cfg.epochs = 1;
  cfg.train_items = 32;
  cfg.validation_items = 32;
  cfg.batch = 4;
  return cfg;
}

TEST(Cosmoflow, StepKernelSequenceShape) {
  const auto kernels = cosmoflow_step_kernels(CosmoflowCalibration{}, 4);
  // 7 conv stages x 4 kernels + dense fwd/bwd + loss + sgd + 4 allreduce.
  EXPECT_EQ(kernels.size(), 7u * 4 + 2 + 1 + 1 + 4);
  for (const auto& k : kernels) EXPECT_GT(k.duration, SimDuration::zero());
  // conv2 is the heaviest stage (64 x 64^3 x 32 dominates).
  const auto heaviest = std::max_element(
      kernels.begin(), kernels.end(),
      [](const auto& a, const auto& b) { return a.duration < b.duration; });
  EXPECT_NE(heaviest->name.find("conv2"), std::string::npos);
}

TEST(Cosmoflow, PerStepRuntimeMatchesPaperScale) {
  // Paper: 705 s over 5 epochs x (1024+1024)/4 steps = ~275 ms/step.
  const AppRunResult r = run_cosmoflow(quick());
  const double ms_per_step = r.runtime.ms() / static_cast<double>(r.steps);
  EXPECT_NEAR(ms_per_step, 275.0, 60.0);
}

TEST(Cosmoflow, GpuDominantRuntimeFractions) {
  CosmoflowConfig cfg = quick();
  cfg.capture_trace = true;
  const AppRunResult r = run_cosmoflow(cfg);
  const auto f = trace::runtime_fractions(r.trace);
  EXPECT_GT(f.kernel, 0.6);   // the GPU is busy most of the time
  EXPECT_LT(f.memory, 0.35);  // transfers are a small share
}

TEST(Cosmoflow, TraceHasManyDistinctKernels) {
  CosmoflowConfig cfg = quick();
  cfg.capture_trace = true;
  const AppRunResult r = run_cosmoflow(cfg);
  std::set<std::string> names;
  for (const auto& op : r.trace.ops()) {
    if (op.kind == gpu::OpKind::kKernel) names.insert(op.name.str());
  }
  // The paper: CosmoFlow executes dozens of different kernels.
  EXPECT_GE(names.size(), 30u);
}

TEST(Cosmoflow, TopFiveKernelsRoughlyHalfOfRuntime) {
  // Paper: the top five kernels cover 49.9% of total kernel time.
  CosmoflowConfig cfg = quick();
  cfg.capture_trace = true;
  const AppRunResult r = run_cosmoflow(cfg);
  const double frac = trace::top_kernel_time_fraction(r.trace, 5);
  EXPECT_GT(frac, 0.35);
  EXPECT_LT(frac, 0.80);
}

TEST(Cosmoflow, TransferBinsSpanTableThreeLayout) {
  CosmoflowConfig cfg = quick();
  cfg.capture_trace = true;
  // Scale the per-epoch sync/checkpoint cadence down in proportion to the
  // shortened epoch (8 train steps instead of 256).
  CosmoflowCalibration cal;
  cal.weight_syncs_per_epoch = 4;
  cal.checkpoint_transfers_per_epoch = 2;
  const AppRunResult r = run_cosmoflow(cfg, cal);
  const auto hist = trace::bin_transfer_sizes(r.trace, {1.0, 16.0, 256.0, 4096.0});
  // Small control transfers dominate by count; prefetch chunks land in the
  // <=4096 MiB bin; weight syncs in <=16; checkpoints in <=256.
  EXPECT_GT(hist.count(0), hist.count(1));
  EXPECT_GT(hist.count(0), hist.count(3));
  EXPECT_GT(hist.count(1), 0u);
  EXPECT_GT(hist.count(2), 0u);
  EXPECT_GT(hist.count(3), 0u);
  EXPECT_EQ(hist.count(4), 0u);
}

TEST(Cosmoflow, MeanTransferSizeNearPaper) {
  // Paper Table III: CosmoFlow mean 34.4 MiB.
  CosmoflowConfig cfg = quick();
  cfg.capture_trace = true;
  const AppRunResult r = run_cosmoflow(cfg);
  const auto hist = trace::bin_transfer_sizes(r.trace, {1.0, 16.0, 256.0, 4096.0});
  EXPECT_GT(hist.mean(), 15.0);
  EXPECT_LT(hist.mean(), 70.0);
}

TEST(Cosmoflow, TwoCoresSufficeMoreAddNothing) {
  // Section IV-A: CosmoFlow needs 2 cores; extra cores show no benefit.
  const auto points = cosmoflow_core_scaling({1, 2, 4, 8}, quick());
  ASSERT_EQ(points.size(), 4u);
  EXPECT_GT(points[0].normalized, 1.1);              // starved at 1 core
  EXPECT_NEAR(points[1].normalized, 1.0, 1e-9);      // 2 cores = full speed
  EXPECT_NEAR(points[2].normalized, 1.0, 1e-9);
  EXPECT_NEAR(points[3].normalized, 1.0, 1e-9);
}

TEST(Cosmoflow, SlackAccounting) {
  CosmoflowConfig cfg = quick();
  cfg.slack = 10_us;
  const AppRunResult r = run_cosmoflow(cfg);
  EXPECT_GT(r.cuda_calls, 0);
  EXPECT_EQ(r.runtime - r.no_slack_runtime, 10_us * r.cuda_calls);
}

TEST(CosmoflowMultiGpu, DataParallelSpeedsUpTraining) {
  MultiGpuCosmoflowConfig cfg;
  cfg.base.epochs = 1;
  cfg.base.train_items = 64;
  cfg.base.validation_items = 0;
  cfg.base.batch = 4;
  cfg.gpus = 1;
  const auto one = run_cosmoflow_multi_gpu(cfg);
  cfg.gpus = 4;
  const auto four = run_cosmoflow_multi_gpu(cfg);
  // 4 GPUs do 1/4 the steps each; allreduce overhead keeps it sub-linear.
  EXPECT_LT(four.runtime, one.runtime);
  EXPECT_GT(four.runtime.seconds(), one.runtime.seconds() / 4.0);
}

TEST(CosmoflowMultiGpu, ChassisFabricBeatsScattered) {
  MultiGpuCosmoflowConfig cfg;
  cfg.base.epochs = 1;
  cfg.base.train_items = 32;
  cfg.base.validation_items = 0;
  cfg.base.batch = 4;
  cfg.gpus = 8;
  cfg.gradient_bytes = 256 * kMiB;  // heavy exchange accentuates the fabric
  cfg.fabric = interconnect::make_nvlink();
  const auto chassis = run_cosmoflow_multi_gpu(cfg);
  cfg.fabric = interconnect::make_cdi_link();
  const auto scattered = run_cosmoflow_multi_gpu(cfg);
  EXPECT_LT(chassis.runtime, scattered.runtime);
}

TEST(CosmoflowMultiGpu, TraceCapturesAllRanks) {
  MultiGpuCosmoflowConfig cfg;
  cfg.base.epochs = 1;
  cfg.base.train_items = 16;
  cfg.base.validation_items = 0;
  cfg.base.batch = 4;
  cfg.base.capture_trace = true;
  cfg.gpus = 2;
  const auto r = run_cosmoflow_multi_gpu(cfg);
  ASSERT_TRUE(!r.trace.ops().empty());
  bool saw_allreduce = false;
  std::set<int> ranks;
  for (const auto& op : r.trace.ops()) {
    ranks.insert(op.context_id);
    if (op.name.view().find("horovod_allreduce") != std::string_view::npos) saw_allreduce = true;
  }
  EXPECT_TRUE(saw_allreduce);
  EXPECT_GE(ranks.size(), 2u);
}

TEST(Cosmoflow, DeterministicRuns) {
  const AppRunResult a = run_cosmoflow(quick());
  const AppRunResult b = run_cosmoflow(quick());
  EXPECT_EQ(a.runtime, b.runtime);
}

}  // namespace
}  // namespace rsd::apps

#include "gpusim/chassis.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "core/error.hpp"
#include "gpusim/collective.hpp"
#include "interconnect/collective.hpp"
#include "sim/scheduler.hpp"
#include "trace/trace.hpp"

namespace rsd::gpu {
namespace {

using namespace rsd::literals;

SimDuration run_allreduce(Chassis& chassis, sim::Scheduler& sched, net::Algorithm algorithm,
                          Bytes bytes, int participants) {
  sched.spawn([](Chassis& c, net::Algorithm a, Bytes b, int p) -> sim::Task<> {
    co_await c.allreduce(a, b, p);
  }(chassis, algorithm, bytes, participants));
  sched.run();
  return sched.now() - SimTime::zero();
}

/// The (src, dst, bytes) the chassis logged, in launch order.
std::vector<net::Transfer> logged(const std::vector<FabricTransferRecord>& log) {
  std::vector<net::Transfer> out;
  for (const FabricTransferRecord& r : log) out.push_back(net::Transfer{r.src, r.dst, r.bytes});
  return out;
}

/// Every transfer of `schedule`, depth-first in list order.
void flatten(const net::CollectiveSchedule& schedule, std::vector<net::Transfer>& out) {
  for (const auto& step : schedule.steps) {
    out.insert(out.end(), step.phase.begin(), step.phase.end());
    for (const auto& branch : step.fork) flatten(branch, out);
  }
}

/// The log must hold exactly the schedule's transfers, step by step. A
/// fork's concurrent branches interleave, so its segment is checked per
/// branch: restricted to one branch's devices it must equal that branch.
void expect_log_follows(const std::vector<net::Transfer>& log,
                        const net::CollectiveSchedule& schedule) {
  std::size_t at = 0;
  for (const auto& step : schedule.steps) {
    std::vector<net::Transfer> want;
    flatten(net::CollectiveSchedule{.steps = {step}}, want);
    ASSERT_LE(at + want.size(), log.size());
    const std::vector<net::Transfer> got(log.begin() + static_cast<std::ptrdiff_t>(at),
                                         log.begin() +
                                             static_cast<std::ptrdiff_t>(at + want.size()));
    at += want.size();
    if (step.fork.empty()) {
      EXPECT_EQ(got, want);
      continue;
    }
    for (const auto& branch : step.fork) {
      std::vector<net::Transfer> branch_want;
      flatten(branch, branch_want);
      std::vector<net::Transfer> branch_got;
      for (const net::Transfer& t : got) {
        const bool mine = std::any_of(branch_want.begin(), branch_want.end(),
                                      [&t](const net::Transfer& w) { return w.src == t.src; });
        if (mine) branch_got.push_back(t);
      }
      EXPECT_EQ(branch_got, branch_want);
    }
  }
  EXPECT_EQ(at, log.size());
}

TEST(Chassis, ConstructsRequestedDevices) {
  sim::Scheduler sched;
  Chassis chassis{sched, ChassisParams{.gpus = 4}};
  EXPECT_EQ(chassis.size(), 4);
  EXPECT_EQ(chassis.device(0).memory().capacity(), 40ULL * kGiB);
}

TEST(Chassis, SingleParticipantAllreduceIsFree) {
  sim::Scheduler sched;
  Chassis chassis{sched, ChassisParams{.gpus = 2}};
  EXPECT_EQ(run_allreduce(chassis, sched, net::Algorithm::kRing, kGiB, 1), SimDuration::zero());
}

TEST(Chassis, ExecutedAllreduceMatchesAnalyticModel) {
  // The DES adds per-op engine setup; agreement within 15% for both the
  // ring and the tree.
  const Bytes bytes = 256 * kMiB;
  for (const net::Algorithm algorithm : {net::Algorithm::kRing, net::Algorithm::kTree}) {
    sim::Scheduler sched;
    ChassisParams params;
    params.gpus = 8;
    Chassis chassis{sched, params};
    const SimDuration executed = run_allreduce(chassis, sched, algorithm, bytes, 8);
    const SimDuration analytic = algorithm == net::Algorithm::kRing
                                     ? ring_allreduce_time(bytes, 8, params.fabric)
                                     : tree_allreduce_time(bytes, 8, params.fabric);
    EXPECT_GT(executed, analytic) << net::to_string(algorithm);
    EXPECT_LT(executed.seconds(), analytic.seconds() * 1.15) << net::to_string(algorithm);
  }
}

TEST(Chassis, PhasesAreBulkSynchronous) {
  // All devices' engines are occupied the same amount: each participant
  // sends and receives 2(k-1) chunks.
  sim::Scheduler sched;
  ChassisParams params;
  params.gpus = 4;
  Chassis chassis{sched, params};
  trace::TraceRecorder rec;
  chassis.set_record_sink(&rec);
  (void)run_allreduce(chassis, sched, net::Algorithm::kRing, 64 * kMiB, 4);
  // 2(4-1) = 6 phases x 4 participants = 24 transfers x 2 records each.
  EXPECT_EQ(rec.trace().ops().size(), 48u);
  std::size_t sends = 0;
  std::size_t recvs = 0;
  for (const auto& op : rec.trace().ops()) {
    if (op.kind == OpKind::kMemcpyD2H) ++sends;
    if (op.kind == OpKind::kMemcpyH2D) ++recvs;
    EXPECT_EQ(op.bytes, 64 * kMiB / 4);
  }
  EXPECT_EQ(sends, 24u);
  EXPECT_EQ(recvs, 24u);
}

TEST(Chassis, ScatteredFabricIsSlower) {
  auto run = [](const GpuInterconnect& fabric) {
    sim::Scheduler sched;
    ChassisParams params;
    params.gpus = 8;
    params.fabric = fabric;
    Chassis chassis{sched, params};
    return run_allreduce(chassis, sched, net::Algorithm::kRing, 256 * kMiB, 8);
  };
  EXPECT_LT(run(make_nvlink()), run(make_scattered()));
}

TEST(Chassis, SubsetParticipation) {
  sim::Scheduler sched;
  Chassis chassis{sched, ChassisParams{.gpus = 8}};
  trace::TraceRecorder rec;
  chassis.set_record_sink(&rec);
  (void)run_allreduce(chassis, sched, net::Algorithm::kRing, 16 * kMiB, 3);  // first 3 GPUs
  // 2(3-1) = 4 phases x 3 transfers x 2 records = 24.
  EXPECT_EQ(rec.trace().ops().size(), 24u);
}

TEST(Chassis, TransferLogFollowsTheSchedule) {
  // 12 GPUs at 8 per chassis: an uneven hierarchical fork (rings of 8 and
  // 4), a two-leader ring, and a fan-out phase.
  for (const net::Algorithm algorithm :
       {net::Algorithm::kRing, net::Algorithm::kTree, net::Algorithm::kHierarchical}) {
    sim::Scheduler sched;
    Chassis chassis{sched, ChassisParams{.gpus = 12}};
    std::vector<FabricTransferRecord> log;
    chassis.set_transfer_log(&log);
    (void)run_allreduce(chassis, sched, algorithm, 24 * kMiB, 12);
    SCOPED_TRACE(net::to_string(algorithm));
    expect_log_follows(logged(log),
                       net::allreduce_schedule(algorithm, chassis.topology(), 12, 24 * kMiB));
  }
}

TEST(Chassis, RejectsBadParticipantCounts) {
  for (const int participants : {0, -1, 9}) {
    sim::Scheduler sched;
    Chassis chassis{sched, ChassisParams{.gpus = 8}};
    EXPECT_THROW((void)run_allreduce(chassis, sched, net::Algorithm::kRing, kMiB, participants),
                 Error)
        << participants;
  }
}

}  // namespace
}  // namespace rsd::gpu

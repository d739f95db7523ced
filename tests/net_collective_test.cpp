// Allreduce schedules as data (every rank ends with every contribution),
// and the event-driven collectives vs the closed-form alpha-beta models:
// on an uncontended fabric the scheduled ring/tree algorithms must
// reproduce gpu::ring_allreduce_time / gpu::tree_allreduce_time to the
// nanosecond — the analytic forms stay in the tree as this cross-check.
#include "interconnect/collective.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "core/error.hpp"
#include "gpusim/collective.hpp"
#include "interconnect/fabric.hpp"
#include "wl/program.hpp"

namespace rsd::net {
namespace {

constexpr int kGpus = 8;
constexpr Bytes kPayload = 32 * kMiB;  // divisible by kGpus: no chunk rounding

FabricParams fabric_params(FabricKind kind) {
  FabricParams params;
  params.kind = kind;
  params.gpus = kGpus;
  return params;
}

/// Bit r of knows[i]: rank i holds rank r's contribution.
using Knowledge = std::vector<std::uint32_t>;

/// Apply `schedule` without simulating it. In a phase every dst learns
/// what its src knew when the phase began; fork branches each start from
/// the fork's state and must touch disjoint ranks. Returns the number of
/// transfers applied.
std::size_t apply(const CollectiveSchedule& schedule, Knowledge& knows) {
  std::size_t transfers = 0;
  for (const CollectiveSchedule::Step& step : schedule.steps) {
    EXPECT_NE(step.phase.empty(), step.fork.empty()) << "a step is one phase or one fork";
    const Knowledge start = knows;
    for (const Transfer& t : step.phase) {
      EXPECT_NE(t.src, t.dst);
      knows.at(static_cast<std::size_t>(t.dst)) |= start.at(static_cast<std::size_t>(t.src));
      ++transfers;
    }
    std::vector<bool> claimed(knows.size(), false);
    for (const CollectiveSchedule& branch : step.fork) {
      EXPECT_FALSE(branch.steps.empty()) << "an empty branch only costs a spawn";
      Knowledge mine = start;
      transfers += apply(branch, mine);
      for (std::size_t r = 0; r < knows.size(); ++r) {
        if (mine[r] == start[r]) continue;
        EXPECT_FALSE(claimed[r]) << "two fork branches wrote rank " << r;
        claimed[r] = true;
        knows[r] = mine[r];
      }
    }
  }
  return transfers;
}

TEST(NetSchedule, EveryRankEndsWithEveryContribution) {
  for (const int n : {1, 2, 3, 5, 8, 12, 16}) {
    for (const int width : {1, 4, 8}) {  // 5 at 4 and 12 at 8 leave an uneven last chassis
      FabricParams params = fabric_params(FabricKind::kFullMesh);
      params.gpus = n;
      params.gpus_per_chassis = width;
      const Topology topo = build_fabric(params);
      for (const Algorithm algorithm :
           {Algorithm::kRing, Algorithm::kTree, Algorithm::kHierarchical}) {
        SCOPED_TRACE(std::string{to_string(algorithm)} + " n=" + std::to_string(n) +
                     " width=" + std::to_string(width));
        const std::uint64_t builds = topo.route_table_builds();
        const std::uint64_t hits = topo.route_table_hits();
        const CollectiveSchedule schedule = allreduce_schedule(algorithm, topo, n, kPayload);
        // The builder reads chassis tags only; it never routes.
        EXPECT_EQ(topo.route_table_builds(), builds);
        EXPECT_EQ(topo.route_table_hits(), hits);

        Knowledge knows(static_cast<std::size_t>(n));
        for (int r = 0; r < n; ++r) knows[static_cast<std::size_t>(r)] = 1u << r;
        const std::size_t transfers = apply(schedule, knows);
        for (int r = 0; r < n; ++r) {
          EXPECT_EQ(knows[static_cast<std::size_t>(r)], (1u << n) - 1) << "rank " << r;
        }
        const auto un = static_cast<std::size_t>(n);
        if (algorithm == Algorithm::kRing) {
          EXPECT_EQ(transfers, 2 * un * (un - 1));
        } else if (algorithm == Algorithm::kTree) {
          EXPECT_EQ(transfers, 2 * (un - 1));
        }
      }
    }
  }
}

TEST(NetSchedule, RejectsBadParticipantCountsNamingThem) {
  const Topology topo = build_fabric(fabric_params(FabricKind::kFullMesh));
  for (const int participants : {0, -3, kGpus + 1}) {
    try {
      (void)allreduce_schedule(Algorithm::kHierarchical, topo, participants, kPayload);
      ADD_FAILURE() << participants << " participants accepted";
    } catch (const Error& e) {
      EXPECT_EQ(e.code(), ErrorCode::kInvalidArgument);
      EXPECT_NE(std::string{e.what()}.find(std::to_string(participants) + " participants"),
                std::string::npos)
          << e.what();
    }
  }
}

gpu::GpuInterconnect analytic_link(const FabricParams& params) {
  return gpu::GpuInterconnect{"fabric-link", params.link_bandwidth_gib_s,
                              params.link_latency};
}

TEST(NetCollective, RingMatchesClosedFormOnFullMesh) {
  const FabricParams params = fabric_params(FabricKind::kFullMesh);
  const Topology topo = build_fabric(params);
  const AllreduceReport report = measure_allreduce(topo, Algorithm::kRing, kPayload, kGpus);

  EXPECT_EQ(report.duration, gpu::ring_allreduce_time(kPayload, kGpus, analytic_link(params)));
  // 2(n-1) phases, one chunk per rank per phase, all on dedicated links.
  EXPECT_EQ(report.transfers, static_cast<std::uint64_t>(2 * (kGpus - 1) * kGpus));
  EXPECT_EQ(report.contended_transfers, 0u);
  EXPECT_EQ(report.reconfigurations, 0u);
}

TEST(NetCollective, RingMatchesClosedFormOnRingFabric) {
  // The ring algorithm only talks to ring successors, so the ring fabric
  // is just as uncontended as the full mesh and lands on the same time.
  const FabricParams params = fabric_params(FabricKind::kRing);
  const Topology topo = build_fabric(params);
  const AllreduceReport report = measure_allreduce(topo, Algorithm::kRing, kPayload, kGpus);

  EXPECT_EQ(report.duration, gpu::ring_allreduce_time(kPayload, kGpus, analytic_link(params)));
  EXPECT_EQ(report.contended_transfers, 0u);
}

TEST(NetCollective, TreeMatchesClosedFormOnFullMesh) {
  const FabricParams params = fabric_params(FabricKind::kFullMesh);
  const Topology topo = build_fabric(params);
  const AllreduceReport report = measure_allreduce(topo, Algorithm::kTree, kPayload, kGpus);

  EXPECT_EQ(report.duration, gpu::tree_allreduce_time(kPayload, kGpus, analytic_link(params)));
  // Binomial reduce + broadcast: n-1 full-payload sends each way.
  EXPECT_EQ(report.transfers, static_cast<std::uint64_t>(2 * (kGpus - 1)));
  EXPECT_EQ(report.contended_transfers, 0u);
}

TEST(NetCollective, HierarchicalSingleChassisIsRingPlusFanOut) {
  // One chassis: stage 1 is the plain ring, the leader "ring" is a
  // singleton no-op, and stage 3 fans the payload from the leader to the
  // other n-1 ranks over dedicated mesh links in one concurrent round.
  const FabricParams params = fabric_params(FabricKind::kFullMesh);
  const Topology topo = build_fabric(params);
  const AllreduceReport report =
      measure_allreduce(topo, Algorithm::kHierarchical, kPayload, kGpus);

  const gpu::GpuInterconnect link = analytic_link(params);
  const SimDuration fan_out = gpu::detail::transfer(link, static_cast<double>(kPayload));
  EXPECT_EQ(report.duration, gpu::ring_allreduce_time(kPayload, kGpus, link) + fan_out);
  EXPECT_EQ(report.contended_transfers, 0u);
}

TEST(NetCollective, HierarchicalChassisRingsRunConcurrently) {
  // Two chassis of four on the full mesh: the two intra-chassis rings
  // overlap on disjoint links, so the total is one 4-rank ring, the
  // two-leader ring, and one concurrent fan-out round.
  FabricParams params = fabric_params(FabricKind::kFullMesh);
  params.gpus_per_chassis = kGpus / 2;
  const Topology topo = build_fabric(params);
  const AllreduceReport report =
      measure_allreduce(topo, Algorithm::kHierarchical, kPayload, kGpus);

  const gpu::GpuInterconnect link = analytic_link(params);
  EXPECT_EQ(report.duration, gpu::ring_allreduce_time(kPayload, kGpus / 2, link) +
                                 gpu::ring_allreduce_time(kPayload, 2, link) +
                                 gpu::detail::transfer(link, static_cast<double>(kPayload)));
  EXPECT_EQ(report.contended_transfers, 0u);
}

TEST(NetCollective, SwitchedFabricsChargeTheExtraHop) {
  // Store-and-forward through the electrical switch serialises the payload
  // twice and pays the forwarding latency, so the single-hop closed form
  // is a strict lower bound there.
  const FabricParams params = fabric_params(FabricKind::kElectricalSwitch);
  const Topology topo = build_fabric(params);
  const AllreduceReport report = measure_allreduce(topo, Algorithm::kRing, kPayload, kGpus);
  EXPECT_GT(report.duration, gpu::ring_allreduce_time(kPayload, kGpus, analytic_link(params)));
}

TEST(NetCollective, OcsPaysOneReconfigurationPerIngressPort) {
  // The ring algorithm gives every GPU one fixed successor, so each
  // GPU-to-OCS ingress port is configured exactly once and then reused
  // for all 2(n-1) phases.
  const FabricParams params = fabric_params(FabricKind::kOpticalCircuit);
  const Topology ocs = build_fabric(params);
  const AllreduceReport o = measure_allreduce(ocs, Algorithm::kRing, kPayload, kGpus);
  EXPECT_EQ(o.reconfigurations, static_cast<std::uint64_t>(kGpus));

  const Topology eswitch = build_fabric(fabric_params(FabricKind::kElectricalSwitch));
  const AllreduceReport e = measure_allreduce(eswitch, Algorithm::kRing, kPayload, kGpus);
  EXPECT_EQ(e.reconfigurations, 0u);
  // Reconfiguration happens once up front; the per-phase cost is cheaper
  // than the electrical switch's forwarding, so the two fabrics must not
  // coincide.
  EXPECT_NE(o.duration, e.duration);
}

TEST(NetCollective, UsageSamplerAccountsEverySerializedNanosecond) {
  // The per-link usage buckets must tally exactly the busy time and
  // transfer count the network's cumulative counters report, and each
  // bucket is internally consistent (busy fits, queue depth sane).
  const FabricParams params = fabric_params(FabricKind::kFullMesh);
  const Topology topo = build_fabric(params);
  std::vector<LinkUsageSample> usage;
  const AllreduceReport report =
      measure_allreduce(topo, Algorithm::kRing, kPayload, kGpus, &usage);
  ASSERT_FALSE(usage.empty());

  std::int64_t busy = 0;
  std::uint64_t transfers = 0;
  for (std::size_t i = 0; i < usage.size(); ++i) {
    const LinkUsageSample& s = usage[i];
    EXPECT_GE(s.busy_ns, 0);
    EXPECT_GE(s.max_queue_depth, 0);
    busy += s.busy_ns;
    transfers += s.transfers;
    if (i > 0) {
      // Sorted by (link, bucket start), strictly: one sample per bucket.
      const LinkUsageSample& prev = usage[i - 1];
      EXPECT_TRUE(prev.link < s.link ||
                  (prev.link == s.link && prev.bucket_start_ns < s.bucket_start_ns));
    }
  }
  EXPECT_EQ(transfers, report.transfers);
  // Busy time books into the bucket where serialization began, so the
  // total equals the sum of serialization times: transfers * chunk time
  // on the uncontended mesh ring.
  EXPECT_GT(busy, 0);
}

TEST(NetCollective, SingleParticipantIsFree) {
  const Topology topo = build_fabric(fabric_params(FabricKind::kFullMesh));
  const AllreduceReport report = measure_allreduce(topo, Algorithm::kRing, kPayload, 1);
  EXPECT_EQ(report.duration, SimDuration::zero());
  EXPECT_EQ(report.transfers, 0u);
}

TEST(NetCollective, RejectsBadParticipantCounts) {
  const Topology topo = build_fabric(fabric_params(FabricKind::kFullMesh));
  EXPECT_THROW((void)measure_allreduce(topo, Algorithm::kRing, kPayload, 0), Error);
  EXPECT_THROW((void)measure_allreduce(topo, Algorithm::kRing, kPayload, kGpus + 1), Error);
}

TEST(NetCollective, ProgramValidateRejectsOversubscribedAllreduce) {
  wl::Program program;
  wl::Lane& lane = program.lanes.emplace_back();
  lane.allreduce(kPayload, 4, NameRef{"grad_exchange"});

  EXPECT_NO_THROW(program.validate());     // structural checks only
  EXPECT_NO_THROW(program.validate(4));    // exactly the machine's size
  EXPECT_THROW(program.validate(2), Error);  // 4 participants, 2 devices
}

}  // namespace
}  // namespace rsd::net

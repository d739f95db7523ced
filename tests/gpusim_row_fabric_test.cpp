// PartitionedRow under each pluggable fabric: the digest must be
// byte-identical at any worker-thread count, the ring and full-mesh
// fabrics must coincide (one hop either way for ring-successor traffic),
// a ring edge with zero latency must be rejected — it cannot bound
// cross-partition message arrival — the engine's lookahead graph must be
// exactly the chassis-crossing ring edges, the one-partition-per-chassis
// engine must reproduce the tracked row timings exactly in 2 events per
// rank-phase, a flat row's timing must not depend on how many partitions
// it is cut into, chunk arrivals must never become root tasks, and a row
// with NICs must route its ring without building route tables.
#include "gpusim/row.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/error.hpp"
#include "interconnect/fabric.hpp"
#include "obs/metrics.hpp"

namespace rsd::gpu {
namespace {

using namespace rsd::literals;

RowTraining small_training(int steps = 2) {
  RowTraining training;
  training.kernels = {RowKernel{NameRef{"fwd"}, 50_us}, RowKernel{NameRef{"bwd"}, 100_us}};
  training.submit_cost = 2_us;
  training.gradient_bytes = 32 * kMiB;
  training.steps = steps;
  return training;
}

struct RowRun {
  std::uint64_t digest;
  SimTime finish;
};

RowRun run_row(net::FabricKind kind, int gpus, int threads) {
  RowParams params;
  params.gpus = gpus;
  params.fabric_kind = kind;
  params.sim_threads = threads;
  PartitionedRow row{params};
  const SimTime finish = row.run_training(small_training());
  return RowRun{row.digest(), finish};
}

TEST(RowFabric, DigestIsThreadCountInvariantPerFabric) {
  for (const net::FabricKind kind : net::all_fabric_kinds()) {
    const RowRun base = run_row(kind, 16, 1);
    for (const int threads : {2, 8}) {
      const RowRun run = run_row(kind, 16, threads);
      EXPECT_EQ(run.digest, base.digest)
          << net::to_string(kind) << " at " << threads << " threads";
      EXPECT_EQ(run.finish, base.finish) << net::to_string(kind);
    }
  }
}

TEST(RowFabric, RingAndFullMeshCoincide) {
  // Ring traffic only crosses successor links; on both fabrics that is a
  // single dedicated hop with the same latency and bandwidth.
  const RowRun ring = run_row(net::FabricKind::kRing, 16, 2);
  const RowRun mesh = run_row(net::FabricKind::kFullMesh, 16, 2);
  EXPECT_EQ(ring.digest, mesh.digest);
  EXPECT_EQ(ring.finish, mesh.finish);
}

TEST(RowFabric, SwitchedFabricsDiverge) {
  const RowRun ring = run_row(net::FabricKind::kRing, 16, 2);
  const RowRun eswitch = run_row(net::FabricKind::kElectricalSwitch, 16, 2);
  const RowRun ocs = run_row(net::FabricKind::kOpticalCircuit, 16, 2);
  // The electrical switch adds a forwarding hop to every chunk; the OCS
  // drops the forwarding cost but pays one circuit reconfiguration per
  // rank up front.
  EXPECT_GT(eswitch.finish, ring.finish);
  EXPECT_NE(ocs.digest, eswitch.digest);
  EXPECT_NE(ocs.finish, eswitch.finish);
}

TEST(RowFabric, ZeroLatencyFabricIsRejected) {
  const auto expect_rejected = [](const RowParams& params, const std::string& label) {
    try {
      PartitionedRow row{params};
      ADD_FAILURE() << label << ": expected rsd::Error for a zero-latency ring edge";
    } catch (const Error& e) {
      EXPECT_EQ(e.code(), ErrorCode::kInvalidArgument) << label;
      EXPECT_NE(std::string{e.what()}.find("ring edge 0 -> 1"), std::string::npos)
          << label << ": " << e.what();
    }
  };
  const net::Topology free_ring =
      net::build_fabric({.gpus = 4, .link_latency = SimDuration::zero()});
  RowParams flat;
  flat.gpus = 4;
  flat.topology = &free_ring;
  expect_rejected(flat, "flat ring");

  // A shared multi-chassis graph whose only zero-latency paths cross
  // chassis: one GPU per chassis, free NIC and fibre hops.
  net::Topology topo;
  std::vector<net::NodeId> nics;
  for (int c = 0; c < 4; ++c) {
    topo.add_node({.name = "gpu" + std::to_string(c), .kind = net::NodeKind::kGpu, .chassis = c});
  }
  for (int c = 0; c < 4; ++c) {
    const std::string name = "nic" + std::to_string(c);
    nics.push_back(topo.add_node({.name = name, .kind = net::NodeKind::kNic, .chassis = c}));
    topo.add_duplex(topo.device(c), nics.back(), net::LinkKind::kNic, 24.0, SimDuration::zero());
  }
  for (std::size_t c = 0; c < nics.size(); ++c) {
    topo.add_duplex(nics[c], nics[(c + 1) % nics.size()], net::LinkKind::kFibre, 24.0,
                    SimDuration::zero());
  }
  RowParams shared;
  shared.gpus = 4;
  shared.gpus_per_chassis = 1;
  shared.chassis_nics = true;
  shared.topology = &topo;
  expect_rejected(shared, "shared multi-chassis ring");
}

TEST(RowFabric, LookaheadMatrixIsTheChassisCrossingRingEdges) {
  // The row's lookahead graph is its ring: a ring edge that leaves a
  // chassis is declared at its routed latency; every other pair of
  // partitions has no edge, so a send between them would be rejected.
  for (const net::FabricKind kind : net::all_fabric_kinds()) {
    for (const bool nics : {false, true}) {
      for (const int gpus : {1, 8, 16}) {
        constexpr int kPerChassis = 4;
        RowParams params;
        params.gpus = gpus;
        params.fabric_kind = kind;
        params.gpus_per_chassis = kPerChassis;
        params.chassis_nics = nics;
        PartitionedRow row{params};
        const sim::ParallelEngine& engine = row.engine();
        const std::string label = std::string{net::to_string(kind)} +
                                  (nics ? " + NICs, " : " flat, ") + std::to_string(gpus) +
                                  " GPUs";
        const int chassis = (gpus + kPerChassis - 1) / kPerChassis;
        ASSERT_EQ(engine.size(), chassis) << label;

        for (int rank = 0; rank < gpus; ++rank) {
          const int next = (rank + 1) % gpus;
          const auto src = static_cast<sim::PartitionId>(rank / kPerChassis);
          const auto dst = static_cast<sim::PartitionId>(next / kPerChassis);
          if (src == dst) continue;
          EXPECT_EQ(engine.min_send_delay(src, dst),
                    row.topology().route(row.topology().device(rank),
                                         row.topology().device(next)).latency)
              << label << ", edge " << rank << " -> " << next;
        }
        for (int src = 0; src < chassis; ++src) {
          for (int dst = 0; dst < chassis; ++dst) {
            if (dst == src || dst == (src + 1) % chassis) continue;
            EXPECT_EQ(engine.min_send_delay(static_cast<sim::PartitionId>(src),
                                            static_cast<sim::PartitionId>(dst)),
                      SimDuration::max())
                << label << ", chassis " << src << " -> " << dst;
          }
        }
      }
    }
  }
}

TEST(RowFabric, MultiChassisDigestIsThreadCountInvariantAndSlowerThanFlat) {
  // With chassis NICs on, ring edges that cross a chassis boundary are
  // priced over the routed NIC + fibre path. The digest must stay
  // byte-identical at any worker-thread count, and the fibre serialisation
  // must strictly lengthen the step relative to the flat row.
  for (const net::FabricKind kind : net::all_fabric_kinds()) {
    RowParams params;
    params.gpus = 16;
    params.fabric_kind = kind;
    params.gpus_per_chassis = 4;
    params.chassis_nics = true;
    params.sim_threads = 1;
    PartitionedRow base_row{params};
    const SimTime base_finish = base_row.run_training(small_training());

    for (const int threads : {2, 8}) {
      RowParams p = params;
      p.sim_threads = threads;
      PartitionedRow row{p};
      const SimTime finish = row.run_training(small_training());
      EXPECT_EQ(row.digest(), base_row.digest())
          << net::to_string(kind) << " at " << threads << " threads";
      EXPECT_EQ(finish, base_finish) << net::to_string(kind);
    }

    const RowRun flat = run_row(kind, 16, 1);
    EXPECT_GT(base_finish, flat.finish) << net::to_string(kind);
    EXPECT_NE(base_row.digest(), flat.digest) << net::to_string(kind);
  }
}

TEST(RowFabric, SingleGpuRowStillRuns) {
  // One rank has no ring edge and so no link to price: even a zero link
  // latency is accepted, the engine declares no lookahead edge, the run
  // drains in one epoch, and the allreduce is a no-op.
  const net::Topology free_link =
      net::build_fabric({.gpus = 1, .link_latency = SimDuration::zero()});
  RowParams params;
  params.gpus = 1;
  params.topology = &free_link;
  PartitionedRow row{params};
  EXPECT_GT(row.run_training(small_training()), SimTime::zero());
  EXPECT_EQ(row.engine().epochs(), 1u);
  EXPECT_EQ(row.engine().messages_delivered(), 0u);
}

TEST(RowFabric, MessagesNeverBecomeRootTasks) {
  // Every chunk arrival, local or cross-partition, runs as a plain call:
  // a partition's root list holds only its ranks' loops, so no root sweep
  // runs and the list never outgrows the chassis' 8 rank roots.
  for (const bool nics : {false, true}) {
    RowParams params;
    params.gpus = 512;
    params.gpus_per_chassis = 8;
    params.chassis_nics = nics;
    params.sim_threads = 1;
    PartitionedRow row{params};
    row.run_training(small_training(1));
    const std::string label = nics ? "8/chassis + NICs" : "flat";
    ASSERT_EQ(row.engine().size(), 64) << label;
    for (sim::PartitionId p = 0; p < 64; ++p) {
      const sim::Scheduler& sched = row.engine().partition(p).scheduler();
      EXPECT_EQ(sched.sweep_count(), 0u) << label << ", partition " << p;
      EXPECT_LE(sched.root_capacity(), 8u) << label << ", partition " << p;
    }
  }
}

TEST(RowFabric, SharedTopologyMatchesOwned) {
  // A prebuilt fabric passed through RowParams::topology must behave
  // exactly like the row's privately built one — including when several
  // rows share it back to back (warm route tables and all).
  for (const net::FabricKind kind : net::all_fabric_kinds()) {
    const RowRun owned = run_row(kind, 16, 2);
    net::FabricParams fparams;
    fparams.kind = kind;
    fparams.gpus = 16;
    const net::Topology topo = net::build_fabric(fparams);
    for (int repeat = 0; repeat < 2; ++repeat) {
      RowParams params;
      params.gpus = 16;
      params.fabric_kind = kind;
      params.sim_threads = 2;
      params.topology = &topo;
      PartitionedRow row{params};
      const SimTime finish = row.run_training(small_training());
      EXPECT_EQ(row.digest(), owned.digest) << net::to_string(kind);
      EXPECT_EQ(finish, owned.finish) << net::to_string(kind);
    }
  }
}

TEST(RowFabric, ChassisPartitionsKeepTrackedTiming) {
  // One training step per row, as fabric_compare and multichassis_contention
  // run it: digest and finish time must equal the tracked CSV cells (or,
  // for shapes no CSV tracks, the values pinned when they were added) at
  // any worker-thread count.
  // The engine runs one partition per chassis, and only ring edges that
  // leave a chassis carry engine messages — one such edge per chassis,
  // each used in all 2(n-1) allreduce phases.
  struct Case {
    net::FabricKind kind;
    int gpus;
    int gpus_per_chassis;
    bool chassis_nics;
    std::uint64_t digest;
    std::int64_t finish_ns;
    bool queues_copies = false;  ///< Some chunks land on a still-booked H2D engine.
  };
  using enum net::FabricKind;
  const std::vector<Case> cases{
      // bench_results/fabric_compare.csv, row_step rows.
      {kRing, 32, 8, false, 15856204977110917413ULL, 968834},
      {kRing, 128, 8, false, 15585052406540032805ULL, 2512030},
      {kFullMesh, 32, 8, false, 15856204977110917413ULL, 968834},
      {kFullMesh, 128, 8, false, 15585052406540032805ULL, 2512030},
      {kElectricalSwitch, 32, 8, false, 1906219906433733413ULL, 1231714},
      {kElectricalSwitch, 128, 8, false, 4418463621448747813ULL, 3588990},
      {kOpticalCircuit, 32, 8, false, 469693093416858405ULL, 1322784},
      {kOpticalCircuit, 128, 8, false, 7688324762554302757ULL, 3633980},
      // bench_results/multichassis_contention.csv, multichassis row_step rows.
      {kRing, 128, 4, true, 11156306652983668517ULL, 4522088},
      {kRing, 128, 8, true, 16113397458629373093ULL, 4522088},
      // Multi-chassis rows of the other fabrics. On the optical one 48
      // chunks land on an H2D engine still booked and are booked behind
      // the copies there.
      {kFullMesh, 128, 8, true, 16113397458629373093ULL, 4522088},
      {kElectricalSwitch, 128, 8, true, 7664404793485567333ULL, 5187638},
      {kOpticalCircuit, 128, 8, true, 16986019137394284581ULL, 5205788, true},
  };
  auto& reg = obs::Registry::global();
  const auto unexposed_ops = [&reg] {
    return reg.counter("gpusim.ops").value() - reg.counter("gpusim.exposed_launches").value();
  };
  for (const Case& c : cases) {
    for (const int threads : {1, 4}) {
      const std::int64_t unexposed_before = unexposed_ops();
      RowParams params;
      params.gpus = c.gpus;
      params.fabric_kind = c.kind;
      params.gpus_per_chassis = c.gpus_per_chassis;
      params.chassis_nics = c.chassis_nics;
      params.sim_threads = threads;
      auto row = std::make_unique<PartitionedRow>(params);
      const SimTime finish = row->run_training(small_training(1));
      const std::string label = std::string{net::to_string(c.kind)} + " " +
                                std::to_string(c.gpus) + " GPUs, " +
                                std::to_string(c.gpus_per_chassis) + "/chassis" +
                                (c.chassis_nics ? " + NICs" : "") + ", " +
                                std::to_string(threads) + " threads";
      EXPECT_EQ(row->digest(), c.digest) << label;
      EXPECT_EQ(finish.ns(), c.finish_ns) << label;
      const int chassis = c.gpus / c.gpus_per_chassis;
      EXPECT_EQ(row->engine().size(), chassis) << label;
      EXPECT_EQ(row->engine().messages_delivered(),
                static_cast<std::uint64_t>(chassis) * 2 * (c.gpus - 1))
          << label;
      // Engine occupancy: a rank-phase costs the chunk's arrival and the
      // rank's one resumption, since every copy is booked in closed form
      // and the arrival wakes a waiting rank directly. Each rank adds at
      // most 6 events per step for its start, its two kernels (one sleep
      // each until the booked end) and an optical circuit retarget.
      const std::uint64_t rank_phases = static_cast<std::uint64_t>(c.gpus) * 2 * (c.gpus - 1);
      EXPECT_LE(row->engine().executed_events(),
                2 * rank_phases + 6 * static_cast<std::uint64_t>(c.gpus))
          << label;
      row.reset();  // flushes the devices' tallies
      // Every booking on an idle engine is exposed; a queued copy is not.
      EXPECT_EQ(unexposed_ops() > unexposed_before, c.queues_copies) << label;
    }
  }
}

TEST(RowFabric, FlatRowIsPartitionInvariant) {
  // Cutting a flat row into engine partitions must not move any event: one
  // step of a 128-GPU row gives the same digest and finish time at one GPU
  // per partition as with the whole row in one partition.
  constexpr int kGpus = 128;
  for (const net::FabricKind kind : net::all_fabric_kinds()) {
    std::vector<RowRun> runs;
    for (const int per_chassis : {1, 8, 64, kGpus}) {
      RowParams params;
      params.gpus = kGpus;
      params.fabric_kind = kind;
      params.gpus_per_chassis = per_chassis;
      params.sim_threads = 1;
      PartitionedRow row{params};
      const SimTime finish = row.run_training(small_training(1));
      const std::string label =
          std::string{net::to_string(kind)} + ", " + std::to_string(per_chassis) + "/chassis";
      EXPECT_EQ(row.engine().size(), kGpus / per_chassis) << label;
      runs.push_back(RowRun{row.digest(), finish});
      EXPECT_EQ(runs.back().digest, runs.front().digest) << label;
      EXPECT_EQ(runs.back().finish, runs.front().finish) << label;
    }
  }
}

TEST(RowFabric, MultiChassisRowBuildsNoRouteTable) {
  // Each ring edge of a row with NICs is routed once, point to point: no
  // source gets a dense route table (a full Dijkstra and a row of Paths).
  RowParams params;
  params.gpus = 64;
  params.fabric_kind = net::FabricKind::kElectricalSwitch;
  params.chassis_nics = true;
  params.sim_threads = 1;
  PartitionedRow row{params};
  EXPECT_EQ(row.topology().route_table_builds(), 0u);
  row.run_training(small_training(1));
  EXPECT_EQ(row.topology().route_table_builds(), 0u);
}

}  // namespace
}  // namespace rsd::gpu

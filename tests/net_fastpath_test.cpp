// Network fast path: the dense route tables must be indistinguishable
// from a fresh per-pair Dijkstra on randomized topologies, the express
// single-hop transfer path must be timing-identical to the scheduled
// acquire/serialize/release protocol on every fabric, and the topology's
// cached aggregates must survive mutation.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <tuple>
#include <vector>

#include "core/error.hpp"
#include "core/rng.hpp"
#include "core/units.hpp"
#include "interconnect/fabric.hpp"
#include "interconnect/network.hpp"
#include "interconnect/topology.hpp"
#include "sim/scheduler.hpp"
#include "sim/task.hpp"

namespace rsd::net {
namespace {

using rsd::duration::microseconds;
using rsd::duration::nanoseconds;

/// A random directed graph over GPU and switch nodes: every link latency
/// is at least 1ns (the conservative engine's requirement), bandwidths
/// and forwarding costs vary, and connectivity is whatever the dice gave
/// us — unreachable pairs must throw identically from both routers.
Topology random_topology(std::uint64_t seed) {
  Rng rng{seed};
  Topology topo;
  const int nodes = 6 + static_cast<int>(rng.uniform_index(7));
  std::vector<NodeId> ids;
  ids.reserve(static_cast<std::size_t>(nodes));
  for (int i = 0; i < nodes; ++i) {
    NodeDesc desc;
    desc.name = "n" + std::to_string(i);
    if (rng.uniform() < 0.3) {
      desc.kind = NodeKind::kSwitch;
      desc.forward_latency = nanoseconds(static_cast<double>(rng.uniform_index(500)));
    }
    ids.push_back(topo.add_node(desc));
  }
  const int links = nodes + static_cast<int>(rng.uniform_index(
                                static_cast<std::uint64_t>(2 * nodes)));
  for (int i = 0; i < links; ++i) {
    const auto a = ids[rng.uniform_index(static_cast<std::uint64_t>(nodes))];
    const auto b = ids[rng.uniform_index(static_cast<std::uint64_t>(nodes))];
    if (a == b) continue;
    topo.add_link(LinkDesc{
        a, b, LinkKind::kNvlink, rng.uniform(1.0, 400.0),
        nanoseconds(1.0 + static_cast<double>(rng.uniform_index(5'000)))});
  }
  return topo;
}

TEST(RouteTable, MatchesFreshDijkstraOnRandomTopologies) {
  for (const std::uint64_t seed : {1ULL, 7ULL, 42ULL, 0xfabULL, 0xc0ffeeULL}) {
    const Topology topo = random_topology(seed);
    const int n = static_cast<int>(topo.node_count());
    for (int s = 0; s < n; ++s) {
      for (int d = 0; d < n; ++d) {
        if (s == d) continue;
        const auto src = static_cast<NodeId>(s);
        const auto dst = static_cast<NodeId>(d);
        Path fresh;
        bool fresh_reachable = true;
        try {
          fresh = topo.route_dijkstra(src, dst);
        } catch (const Error&) {
          fresh_reachable = false;
        }
        if (!fresh_reachable) {
          EXPECT_THROW((void)topo.route(src, dst), Error)
              << "seed=" << seed << " " << s << "->" << d;
          continue;
        }
        const Path& table = topo.route(src, dst);
        EXPECT_EQ(table.latency, fresh.latency) << "seed=" << seed << " " << s << "->" << d;
        EXPECT_EQ(table.links, fresh.links) << "seed=" << seed << " " << s << "->" << d;
        EXPECT_EQ(table.bottleneck_gib_s, fresh.bottleneck_gib_s);
        EXPECT_EQ(table.optical_hops, fresh.optical_hops);
      }
    }
  }
}

TEST(RouteTable, MatchesFreshDijkstraOnMultiChassisFabrics) {
  // The multi-chassis graphs add NIC and fibre hops (and a host stub);
  // the dense tables must stay indistinguishable from the per-pair
  // reference search across every node pair of every fabric shape.
  for (const FabricKind kind : all_fabric_kinds()) {
    FabricParams params;
    params.kind = kind;
    params.gpus = 16;
    params.gpus_per_chassis = 4;
    params.chassis_nics = true;
    params.host_endpoint = true;
    const Topology topo = build_fabric(params);
    ASSERT_EQ(topo.nic_count(), 4) << to_string(kind);
    const int n = static_cast<int>(topo.node_count());
    for (int s = 0; s < n; ++s) {
      for (int d = 0; d < n; ++d) {
        if (s == d) continue;
        const auto src = static_cast<NodeId>(s);
        const auto dst = static_cast<NodeId>(d);
        Path fresh;
        bool fresh_reachable = true;
        try {
          fresh = topo.route_dijkstra(src, dst);
        } catch (const Error&) {
          fresh_reachable = false;
        }
        if (!fresh_reachable) {
          EXPECT_THROW((void)topo.route(src, dst), Error)
              << to_string(kind) << " " << s << "->" << d;
          continue;
        }
        const Path& table = topo.route(src, dst);
        EXPECT_EQ(table.latency, fresh.latency)
            << to_string(kind) << " " << s << "->" << d;
        EXPECT_EQ(table.links, fresh.links) << to_string(kind) << " " << s << "->" << d;
        EXPECT_EQ(table.bottleneck_gib_s, fresh.bottleneck_gib_s);
        EXPECT_EQ(table.optical_hops, fresh.optical_hops);
      }
    }
  }
}

TEST(RouteTable, NicHopTieBreaksAreDeterministic) {
  // Cross-chassis routes have genuine ties (e.g. on a NIC full mesh both
  // directions around a 4-NIC ring cost the same): two independently
  // built copies of the same fabric must route every device pair over the
  // same link id sequence, and the table must agree with the reference
  // search on the tie it picked.
  FabricParams params;
  params.gpus = 16;
  params.gpus_per_chassis = 4;
  params.chassis_nics = true;
  for (const FabricKind kind : all_fabric_kinds()) {
    params.kind = kind;
    const Topology first = build_fabric(params);
    const Topology second = build_fabric(params);
    for (int s = 0; s < first.device_count(); ++s) {
      for (int d = 0; d < first.device_count(); ++d) {
        if (s == d) continue;
        const Path& a = first.route(first.device(s), first.device(d));
        const Path& b = second.route(second.device(s), second.device(d));
        EXPECT_EQ(a.links, b.links) << to_string(kind) << " " << s << "->" << d;
        EXPECT_EQ(a.links, first.route_dijkstra(first.device(s), first.device(d)).links)
            << to_string(kind) << " " << s << "->" << d;
      }
    }
  }
}

TEST(RouteTable, TransferTimeIsIntegerNsIdenticalToFreshDijkstra) {
  const Topology topo = random_topology(0x5eedULL);
  const int n = static_cast<int>(topo.node_count());
  const Bytes bytes = 3 * kMiB + 17;
  for (int s = 0; s < n; ++s) {
    for (int d = 0; d < n; ++d) {
      if (s == d) continue;
      const auto src = static_cast<NodeId>(s);
      const auto dst = static_cast<NodeId>(d);
      Path fresh;
      try {
        fresh = topo.route_dijkstra(src, dst);
      } catch (const Error&) {
        continue;
      }
      const SimDuration expected =
          fresh.latency + duration::seconds(static_cast<double>(bytes) /
                                            (fresh.bottleneck_gib_s *
                                             static_cast<double>(kGiB)));
      EXPECT_EQ(topo.transfer_time(src, dst, bytes).ns(), expected.ns())
          << s << "->" << d;
    }
  }
}

TEST(RouteTable, CountsBuildsPerSourceAndHitsPerLookup) {
  FabricParams params;
  params.gpus = 8;
  const Topology topo = build_fabric(params);
  const std::uint64_t builds0 = topo.route_table_builds();
  const std::uint64_t hits0 = topo.route_table_hits();

  (void)topo.route(topo.device(0), topo.device(1));
  (void)topo.route(topo.device(0), topo.device(2));
  EXPECT_EQ(topo.route_table_builds(), builds0 + 1);  // one Dijkstra for source 0
  (void)topo.route(topo.device(0), topo.device(1));
  (void)topo.route(topo.device(0), topo.device(1));
  EXPECT_EQ(topo.route_table_builds(), builds0 + 1);
  EXPECT_EQ(topo.route_table_hits(), hits0 + 2);  // repeat lookups hit the table
}

TEST(RouteTable, InvalidatedByTopologyMutation) {
  Topology topo;
  const NodeId a = topo.add_node(NodeDesc{.name = "a"});
  const NodeId b = topo.add_node(NodeDesc{.name = "b"});
  topo.add_link(LinkDesc{a, b, LinkKind::kNvlink, 100.0, microseconds(10.0)});
  EXPECT_EQ(topo.route(a, b).latency, microseconds(10.0));

  // A faster parallel link must displace the cached route.
  topo.add_link(LinkDesc{a, b, LinkKind::kNvlink, 100.0, microseconds(1.0)});
  EXPECT_EQ(topo.route(a, b).latency, microseconds(1.0));
}

// -- Express-vs-scheduled timing parity -----------------------------------

struct TransferRecord {
  int src = 0;
  int dst = 0;
  std::int64_t finish_ns = 0;

  bool operator==(const TransferRecord&) const = default;
  bool operator<(const TransferRecord& o) const {
    return std::tie(finish_ns, src, dst) < std::tie(o.finish_ns, o.src, o.dst);
  }
};

struct ParityRun {
  std::vector<TransferRecord> records;
  std::int64_t final_ns = 0;
  std::uint64_t transfers = 0;
  std::uint64_t contended = 0;
  std::uint64_t express = 0;
  std::int64_t busy_ns = 0;
};

/// A deliberately bursty workload: ring-neighbor chunks (single hop on
/// ring/fullmesh — express candidates), long-haul transfers (multi-hop on
/// switched fabrics), and same-link pile-ups that force queueing. The
/// whole point: with the express path disabled the observable timing must
/// not move by a nanosecond.
ParityRun run_parity_workload(const Topology& topo, bool express_enabled) {
  sim::Scheduler sched;
  Network network{sched, topo};
  network.set_express_enabled(express_enabled);
  ParityRun run;

  struct Job {
    int src;
    int dst;
    Bytes bytes;
    SimDuration start;
  };
  std::vector<Job> jobs;
  const int gpus = topo.device_count();
  for (int i = 0; i < gpus; ++i) {
    jobs.push_back(Job{i, (i + 1) % gpus, 4 * kMiB, microseconds(0.5 * i)});
    jobs.push_back(Job{i, (i + gpus / 2) % gpus, 1 * kMiB, microseconds(1.0 * i)});
  }
  // Pile-up: three back-to-back bursts on the same pair.
  for (int burst = 0; burst < 3; ++burst) {
    jobs.push_back(Job{0, 1, 8 * kMiB, microseconds(0.1 * burst)});
  }

  for (const Job& job : jobs) {
    sched.spawn([](sim::Scheduler& s, Network& net, Job j,
                   std::vector<TransferRecord>* out) -> sim::Task<> {
      co_await sim::delay(j.start);
      co_await net.transfer_between_devices(j.src, j.dst, j.bytes);
      out->push_back(TransferRecord{j.src, j.dst, s.now().ns()});
    }(sched, network, job, &run.records));
  }
  sched.run();
  EXPECT_EQ(sched.unfinished_count(), 0u);

  // Same-instant completions may resume in a different internal order;
  // the multiset of (finish, src, dst) is the timing fingerprint.
  std::sort(run.records.begin(), run.records.end());
  run.final_ns = sched.now().ns();
  run.transfers = network.transfers();
  run.contended = network.contended_transfers();
  run.express = network.express_transfers();
  run.busy_ns = network.link_busy_total().ns();
  return run;
}

TEST(ExpressPath, TimingIdenticalToScheduledPathOnEveryFabric) {
  for (const FabricKind kind : all_fabric_kinds()) {
    FabricParams params;
    params.kind = kind;
    params.gpus = 8;
    const Topology topo = build_fabric(params);
    const ParityRun on = run_parity_workload(topo, /*express_enabled=*/true);
    const ParityRun off = run_parity_workload(topo, /*express_enabled=*/false);

    EXPECT_EQ(on.records, off.records) << to_string(kind);
    EXPECT_EQ(on.final_ns, off.final_ns) << to_string(kind);
    EXPECT_EQ(on.transfers, off.transfers) << to_string(kind);
    EXPECT_EQ(on.contended, off.contended) << to_string(kind);
    EXPECT_EQ(on.busy_ns, off.busy_ns) << to_string(kind);
    EXPECT_EQ(off.express, 0u) << to_string(kind);
    if (kind == FabricKind::kRing || kind == FabricKind::kFullMesh) {
      // Ring-neighbor traffic is single-hop on these fabrics, so the
      // express path must actually engage when enabled.
      EXPECT_GT(on.express, 0u) << to_string(kind);
    }
  }
}

}  // namespace
}  // namespace rsd::net

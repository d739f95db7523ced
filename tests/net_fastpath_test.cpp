// Network fast path: the dense route tables must be indistinguishable
// from a fresh per-pair Dijkstra on randomized topologies and survive
// mutation, and the one link-booking rule must keep FIFO service, exact
// serialisation, the recorded timing of a bursty workload on every fabric,
// its tie rule, and the usage sampler's bucket order.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <tuple>
#include <utility>
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

// -- Link booking ---------------------------------------------------------

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
/// ring/fullmesh — express transfers while their link is free), long-haul
/// transfers (multi-hop on switched fabrics), and same-link pile-ups that
/// force queueing.
ParityRun run_parity_workload(const Topology& topo) {
  sim::Scheduler sched;
  Network network{sched, topo};
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

  // Same-instant completions resume in scheduler order; the multiset of
  // (finish, src, dst) is the timing fingerprint.
  std::sort(run.records.begin(), run.records.end());
  run.final_ns = sched.now().ns();
  run.transfers = network.transfers();
  run.contended = network.contended_transfers();
  run.express = network.express_transfers();
  run.busy_ns = network.link_busy_total().ns();
  return run;
}

TEST(LinkBooking, ParityWorkloadKeepsRecordedTiming) {
  // Recorded from the network that priced a free single hop by timestamp
  // and every other hop through a one-permit FIFO queue; the booking rule
  // must reproduce both, counters included, on every fabric.
  struct Recorded {
    FabricKind kind;
    std::int64_t final_ns;
    std::uint64_t contended;
    std::uint64_t express;
    std::int64_t busy_ns;
    std::vector<TransferRecord> records;
  };
  const std::vector<Recorded> recorded = {
      {FabricKind::kRing, 162245, 9, 8, 429658,
        {{0, 1, 21531}, {1, 2, 22031}, {2, 3, 22531}, {3, 4, 23031}, {4, 5, 23531},
          {5, 6, 24031}, {6, 7, 24531}, {7, 0, 25031}, {3, 7, 30528}, {4, 0, 31528},
          {0, 4, 47059}, {1, 5, 47559}, {2, 6, 48059}, {0, 1, 65475}, {0, 1, 104537},
          {0, 1, 143599}, {5, 1, 158245}, {6, 2, 160245}, {7, 3, 162245}}},
      {FabricKind::kFullMesh, 138717, 3, 16, 312490,
        {{0, 4, 6882}, {1, 5, 7882}, {2, 6, 8882}, {3, 7, 9882}, {4, 0, 10882}, {5, 1, 11882},
          {6, 2, 12882}, {7, 3, 13882}, {0, 1, 21531}, {1, 2, 22031}, {2, 3, 22531},
          {3, 4, 23031}, {4, 5, 23531}, {5, 6, 24031}, {6, 7, 24531}, {7, 0, 25031},
          {0, 1, 60593}, {0, 1, 99655}, {0, 1, 138717}}},
      {FabricKind::kElectricalSwitch, 184781, 11, 0, 624980,
        {{0, 1, 43182}, {1, 2, 43682}, {2, 3, 44182}, {3, 4, 44682}, {4, 5, 45182},
          {5, 6, 45682}, {6, 7, 46182}, {7, 0, 46682}, {5, 1, 48064}, {6, 2, 48564},
          {7, 3, 49064}, {0, 4, 49564}, {1, 5, 50064}, {2, 6, 50564}, {3, 7, 51064},
          {4, 0, 51564}, {0, 1, 106657}, {0, 1, 145719}, {0, 1, 184781}}},
      {FabricKind::kOpticalCircuit, 284661, 11, 0, 624980,
        {{0, 1, 143062}, {1, 2, 143562}, {2, 3, 144062}, {3, 4, 144562}, {4, 5, 145062},
          {5, 6, 145562}, {6, 7, 146062}, {7, 0, 146562}, {5, 1, 147944}, {6, 2, 148444},
          {7, 3, 148944}, {0, 4, 149444}, {1, 5, 149944}, {2, 6, 150444}, {3, 7, 150944},
          {4, 0, 151444}, {0, 1, 206537}, {0, 1, 245599}, {0, 1, 284661}}},
  };
  ASSERT_EQ(recorded.size(), all_fabric_kinds().size());
  for (const Recorded& want : recorded) {
    FabricParams params;
    params.kind = want.kind;
    params.gpus = 8;
    const ParityRun got = run_parity_workload(build_fabric(params));
    EXPECT_EQ(got.records, want.records) << to_string(want.kind);
    EXPECT_EQ(got.final_ns, want.final_ns) << to_string(want.kind);
    EXPECT_EQ(got.transfers, 19u) << to_string(want.kind);
    EXPECT_EQ(got.contended, want.contended) << to_string(want.kind);
    EXPECT_EQ(got.express, want.express) << to_string(want.kind);
    EXPECT_EQ(got.busy_ns, want.busy_ns) << to_string(want.kind);
  }
}

TEST(LinkBooking, SameInstantArrivalsServeInBookingOrder) {
  // Four transfers spawned at t = 0 on an 8-GPU electrical switch. C and D
  // book the GPU 1 and GPU 2 uplinks first, so B and A queue behind them
  // and reach the downlink to GPU 6 at the same instant. B booked its
  // uplink before A did (it was spawned first), so B serves first.
  FabricParams params;
  params.kind = FabricKind::kElectricalSwitch;
  params.gpus = 8;
  const Topology topo = build_fabric(params);
  sim::Scheduler sched;
  Network network{sched, topo};
  struct Job {
    char name;
    int src;
    int dst;
    Bytes bytes;
  };
  std::vector<std::pair<char, std::int64_t>> landed;
  for (const Job job : {Job{'C', 1, 5, 1 * kMiB}, Job{'D', 2, 7, 1 * kMiB},
                        Job{'B', 2, 6, 4 * kKiB}, Job{'A', 1, 6, 4 * kKiB}}) {
    sched.spawn([](sim::Scheduler& s, Network& net, Job j,
                   std::vector<std::pair<char, std::int64_t>>* out) -> sim::Task<> {
      co_await net.transfer_between_devices(j.src, j.dst, j.bytes);
      out->emplace_back(j.name, s.now().ns());
    }(sched, network, job, &landed));
  }
  sched.run();
  ASSERT_EQ(sched.unfinished_count(), 0u);
  std::sort(landed.begin(), landed.end());
  EXPECT_EQ(landed, (std::vector<std::pair<char, std::int64_t>>{
                        {'A', 9'059}, {'B', 9'040}, {'C', 13'884}, {'D', 13'884}}));
}

/// `n` transfers over one ring link, all spawned at t = 0 in id order.
class LinkFifo : public testing::TestWithParam<int> {};

TEST_P(LinkFifo, FifoAndExactSerialisation) {
  const int n = GetParam();
  FabricParams params;
  params.gpus = 8;
  const Topology topo = build_fabric(params);
  const Path& path = topo.route(topo.device(0), topo.device(1));
  ASSERT_EQ(path.links.size(), 1u);
  const Bytes bytes = 1 * kMiB;
  const SimDuration latency = topo.link(path.links[0]).latency;
  const SimDuration serialize = topo.transfer_time(topo.device(0), topo.device(1), bytes) - latency;
  ASSERT_GT(serialize.ns(), 0);

  sim::Scheduler sched;
  Network network{sched, topo};
  std::vector<int> order;
  std::vector<std::int64_t> finish_ns;
  for (int i = 0; i < n; ++i) {
    sched.spawn([](sim::Scheduler& s, Network& net, Bytes b, int id, std::vector<int>* ord,
                   std::vector<std::int64_t>* fin) -> sim::Task<> {
      co_await net.transfer_between_devices(0, 1, b);
      ord->push_back(id);
      fin->push_back(s.now().ns());
    }(sched, network, bytes, i, &order, &finish_ns));
  }
  sched.run();

  ASSERT_EQ(order.size(), static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    const auto k = static_cast<std::size_t>(i);
    EXPECT_EQ(order[k], i);
    // Starts exactly at the previous booked end, i * serialise; finishes
    // one serialisation and one link latency later.
    EXPECT_EQ(finish_ns[k], (serialize * std::int64_t{i + 1} + latency).ns()) << "transfer " << i;
  }
  EXPECT_EQ(network.express_transfers(), 1u);
  EXPECT_EQ(network.contended_transfers(), static_cast<std::uint64_t>(n - 1));
  EXPECT_EQ(network.link_busy_total().ns(), (serialize * std::int64_t{n}).ns());
  EXPECT_EQ(sched.unfinished_count(), 0u);
}

INSTANTIATE_TEST_SUITE_P(Counts, LinkFifo, testing::Values(1, 2, 3, 8, 32, 100));

TEST(LinkUsage, QueuedTransferBooksBusyIntoItsStartBucket) {
  // 10 us buckets on the ring link 0 -> 1 (200 GiB/s, 2 us latency): 5 MiB
  // at 0 serialises for 24,414 ns; 64 KiB at 1 us queues behind it and
  // starts at 24,414 ns, opening the 20 us bucket; 64 KiB at 11 us arrives
  // behind both, so its arrival opens the 10 us bucket *before* the 20 us
  // one, and it starts at 24,719 ns. A last 64 KiB arrives exactly as that
  // booking ends (25,024 ns): the tie rule makes it find the link free.
  FabricParams params;
  params.gpus = 8;
  const Topology topo = build_fabric(params);
  const LinkId link = topo.route(topo.device(0), topo.device(1)).links[0];
  sim::Scheduler sched;
  Network network{sched, topo};
  network.set_usage_bucket(microseconds(10.0));
  struct Job {
    Bytes bytes;
    SimDuration start;
  };
  for (const Job job : {Job{5 * kMiB, SimDuration::zero()}, Job{64 * kKiB, microseconds(1.0)},
                        Job{64 * kKiB, microseconds(11.0)}, Job{64 * kKiB, nanoseconds(25'024)}}) {
    sched.spawn([](Network& net, Job j) -> sim::Task<> {
      co_await sim::delay(j.start);
      co_await net.transfer_between_devices(0, 1, j.bytes);
    }(network, job));
  }
  sched.run();
  ASSERT_EQ(sched.unfinished_count(), 0u);
  EXPECT_EQ(sched.now().ns(), 25'024 + 305 + 2'000);
  EXPECT_EQ(network.express_transfers(), 2u);
  EXPECT_EQ(network.contended_transfers(), 2u);

  const std::vector<LinkUsageSample> usage = network.link_usage();
  for (std::size_t i = 1; i < usage.size(); ++i) {
    EXPECT_TRUE(usage[i - 1].link < usage[i].link ||
                (usage[i - 1].link == usage[i].link &&
                 usage[i - 1].bucket_start_ns < usage[i].bucket_start_ns))
        << "sample " << i;
  }
  ASSERT_EQ(usage.size(), 3u);
  struct Want {
    std::int64_t start_ns;
    std::int64_t busy_ns;
    std::uint64_t transfers;
    int max_queue_depth;
  };
  const Want want[] = {{0, 24'414, 1, 2}, {10'000, 0, 0, 3}, {20'000, 3 * 305, 3, 1}};
  for (std::size_t i = 0; i < usage.size(); ++i) {
    EXPECT_EQ(usage[i].link, link);
    EXPECT_EQ(usage[i].bucket_start_ns, want[i].start_ns) << "bucket " << i;
    EXPECT_EQ(usage[i].busy_ns, want[i].busy_ns) << "bucket " << i;
    EXPECT_EQ(usage[i].transfers, want[i].transfers) << "bucket " << i;
    EXPECT_EQ(usage[i].max_queue_depth, want[i].max_queue_depth) << "bucket " << i;
  }
}

}  // namespace
}  // namespace rsd::net

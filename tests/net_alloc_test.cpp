// Steady-state transfers touch no general-heap memory: frames come from
// the FrameArena, routes from the dense tables, link bookings sit in each
// link's inline FIFO, and the usage sampler writes into pre-opened buckets.
// This binary links the counting operator new/delete (rsd_alloc_counter),
// so it must not share a process with tests that expect the default
// allocator.
#include <gtest/gtest.h>

#include <cstdint>

#include "core/alloc_counter.hpp"
#include "core/units.hpp"
#include "interconnect/fabric.hpp"
#include "interconnect/network.hpp"
#include "interconnect/topology.hpp"
#include "sim/scheduler.hpp"
#include "sim/task.hpp"

namespace rsd::net {
namespace {

/// One round of transfer churn: every device sends a chunk to its ring
/// successor (single hop on a ring fabric, onto a free link) and a second
/// one two ranks over (multi-hop), with the same-link overlap making later
/// hops book behind earlier ones.
sim::Task<> churn(Network& net, int rounds) {
  const int gpus = net.topology().device_count();
  for (int r = 0; r < rounds; ++r) {
    for (int i = 0; i < gpus; ++i) {
      co_await net.transfer_between_devices(i, (i + 1) % gpus, 256 * kKiB);
    }
    for (int i = 0; i < gpus; ++i) {
      co_await net.transfer_between_devices(i, (i + 2) % gpus, 64 * kKiB);
    }
  }
}

TEST(NetworkAlloc, SteadyStateTransferPathIsAllocationFree) {
  FabricParams params;
  params.gpus = 8;
  const Topology topo = build_fabric(params);
  sim::Scheduler sched;
  Network network{sched, topo};
  // One usage bucket per link for the whole run: bucket management is
  // warm after the first transfer, so the measured window exercises link
  // bookings, queued starts, and sampler updates alone.
  network.set_usage_bucket(duration::seconds(10.0));

  // Warm-up then measure inside one root task: the first churn
  // materializes routes, opens buckets, and populates the frame arena and
  // event-queue high-water marks; the second identical churn must then
  // run entirely out of recycled storage.
  std::int64_t during = -1;
  sched.spawn([](Network& net, std::int64_t* out) -> sim::Task<> {
    co_await churn(net, 50);
    const std::int64_t before = alloc::allocation_count();
    co_await churn(net, 50);
    *out = alloc::allocation_count() - before;
  }(network, &during));
  sched.run();

  ASSERT_EQ(sched.unfinished_count(), 0u);
  EXPECT_GT(network.express_transfers(), 0u);
  EXPECT_EQ(during, 0) << "steady-state transfers touched the general heap";
}

TEST(NetworkAlloc, MultiChassisNicHopsStayAllocationFree) {
  // Same discipline on a multi-chassis graph: the ring-successor chunks
  // at a chassis boundary and the two-over chunks cross NIC + fibre
  // links, so the measured window proves the cross-chassis path — NIC
  // and fibre hops, their bookings and busy time — recycles storage
  // exactly like the intra-chassis one.
  FabricParams params;
  params.gpus = 8;
  params.gpus_per_chassis = 4;
  params.chassis_nics = true;
  const Topology topo = build_fabric(params);
  sim::Scheduler sched;
  Network network{sched, topo};
  network.set_usage_bucket(duration::seconds(10.0));

  std::int64_t during = -1;
  sched.spawn([](Network& net, std::int64_t* out) -> sim::Task<> {
    co_await churn(net, 50);
    const std::int64_t before = alloc::allocation_count();
    co_await churn(net, 50);
    *out = alloc::allocation_count() - before;
  }(network, &during));
  sched.run();

  ASSERT_EQ(sched.unfinished_count(), 0u);
  EXPECT_GT(network.nic_transfers(), 0u);
  EXPECT_GT(network.fibre_busy_total(), SimDuration::zero());
  EXPECT_EQ(during, 0) << "cross-chassis transfers touched the general heap";
}

}  // namespace
}  // namespace rsd::net

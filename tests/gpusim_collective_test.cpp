#include "gpusim/collective.hpp"

#include <gtest/gtest.h>

namespace rsd::gpu {
namespace {

using namespace rsd::literals;
using interconnect::LinkParams;
using interconnect::make_cdi_link;
using interconnect::make_nvlink;
using interconnect::make_pcie_p2p;

TEST(Collective, SingleGpuIsFree) {
  EXPECT_EQ(ring_allreduce_time(kGiB, 1, make_nvlink()), SimDuration::zero());
  EXPECT_EQ(tree_allreduce_time(kGiB, 1, make_nvlink()), SimDuration::zero());
}

TEST(Collective, RingFormula) {
  // 2 GPUs, 2 GiB at 1 GiB/s, zero latency: 2*(2-1) steps of 1 GiB = 2 s.
  const LinkParams link{"t", 1.0, SimDuration::zero()};
  EXPECT_NEAR(ring_allreduce_time(2 * kGiB, 2, link).seconds(), 2.0, 1e-9);
  // 4 GPUs: 6 steps of 0.5 GiB = 3 s.
  EXPECT_NEAR(ring_allreduce_time(2 * kGiB, 4, link).seconds(), 3.0, 1e-9);
}

TEST(Collective, TreeFormula) {
  const LinkParams link{"t", 1.0, SimDuration::zero()};
  // 4 GPUs: 2*log2(4) = 4 steps of the full 1 GiB = 4 s.
  EXPECT_NEAR(tree_allreduce_time(kGiB, 4, link).seconds(), 4.0, 1e-9);
}

TEST(Collective, RingBandwidthOptimalForLargeMessages) {
  const auto link = make_nvlink();
  EXPECT_LT(ring_allreduce_time(kGiB, 8, link), tree_allreduce_time(kGiB, 8, link));
}

TEST(Collective, TreeLatencyOptimalForTinyMessages) {
  const auto link = make_cdi_link();  // GPUs scattered over the row: high latency
  EXPECT_LT(tree_allreduce_time(4 * kKiB, 16, link),
            ring_allreduce_time(4 * kKiB, 16, link));
}

TEST(Collective, BestPicksMinimum) {
  const auto link = make_nvlink();
  for (const Bytes b : {Bytes{4 * kKiB}, Bytes{16 * kMiB}, Bytes{kGiB}}) {
    const auto best = best_allreduce_time(b, 16, link);
    EXPECT_LE(best, ring_allreduce_time(b, 16, link));
    EXPECT_LE(best, tree_allreduce_time(b, 16, link));
  }
}

TEST(Collective, ChassisBeatsScatteredAtEveryScale) {
  // The Discussion's claim: chassis-coupled GPUs accelerate collectives.
  const auto chassis = make_nvlink();
  interconnect::CdiNetworkParams row;
  const auto scattered = make_cdi_link(row);
  for (const int gpus : {2, 4, 8, 16, 24}) {
    for (const Bytes b : {Bytes{kMiB}, Bytes{64 * kMiB}, Bytes{kGiB}}) {
      EXPECT_LT(best_allreduce_time(b, gpus, chassis),
                best_allreduce_time(b, gpus, scattered))
          << gpus << " GPUs, " << format_bytes(b);
    }
  }
}

TEST(Collective, MonotoneInBytes) {
  const auto link = make_pcie_p2p();
  SimDuration prev = SimDuration::zero();
  for (Bytes b = kMiB; b <= kGiB; b *= 4) {
    const auto t = ring_allreduce_time(b, 8, link);
    EXPECT_GT(t, prev);
    prev = t;
  }
}

TEST(Collective, FactoriesHaveExpectedOrdering) {
  EXPECT_GT(make_nvlink().bandwidth_gib_s, make_pcie_p2p().bandwidth_gib_s);
  EXPECT_GT(make_cdi_link().latency, make_nvlink().latency);
}

}  // namespace
}  // namespace rsd::gpu

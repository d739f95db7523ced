#include "interconnect/link.hpp"

#include <gtest/gtest.h>

#include "interconnect/slack.hpp"

namespace rsd::interconnect {
namespace {

using namespace rsd::literals;

TEST(Link, TransferTimeIsLatencyPlusSerialisation) {
  const LinkParams link{"t", 1.0, 10_us};
  EXPECT_EQ(transfer_time(link, 0), 10_us);
  // 1 GiB at 1 GiB/s = 1 s.
  EXPECT_EQ(transfer_time(link, kGiB), 10_us + 1_s);
  EXPECT_EQ(serialization_time(kGiB, link.bandwidth_gib_s), 1_s);
}

TEST(Link, BandwidthScalesTransferTime) {
  const LinkParams fast{"f", 24.0, SimDuration::zero()};
  // 24 GiB at 24 GiB/s = 1 s.
  EXPECT_NEAR(transfer_time(fast, 24.0 * kGiB).seconds(), 1.0, 1e-9);
}

TEST(Link, PcieGen4Defaults) {
  const LinkParams pcie = make_pcie_gen4_x16();
  EXPECT_EQ(pcie.name, "pcie-gen4-x16");
  EXPECT_EQ(pcie.latency, 8_us);
  // 256 MiB at 24 GiB/s ~ 10.4 ms.
  EXPECT_NEAR(transfer_time(pcie, 256 * kMiB).ms(), 10.4, 0.2);
}

TEST(Fibre, SpeedOfLightConversion) {
  // The paper: 100 us of slack = 20 km of fibre.
  EXPECT_NEAR(reach_km_for_slack(100_us), 20.0, 1e-9);
  EXPECT_EQ(fibre_delay(20.0), 100_us);
  EXPECT_EQ(fibre_delay(0.0), SimDuration::zero());
}

TEST(CdiNetwork, SlackComposition) {
  CdiNetworkParams p;
  p.nic_latency = duration::microseconds(0.35);
  p.switch_hops = 2;
  p.per_hop_latency = duration::microseconds(0.12);
  p.fibre_km = 0.05;
  // 2*0.35 + 2*0.12 + 0.05*5 = 0.7 + 0.24 + 0.25 = 1.19 us.
  EXPECT_NEAR(p.slack().us(), 1.19, 1e-9);
}

TEST(CdiNetwork, RowScaleSlackIsMicrosecondScale) {
  const CdiNetworkParams row{};  // defaults: tens of metres
  EXPECT_GT(row.slack().us(), 0.5);
  EXPECT_LT(row.slack().us(), 5.0);
}

TEST(CdiNetwork, ClusterScaleAddsFibre) {
  CdiNetworkParams cluster;
  cluster.fibre_km = 20.0;
  EXPECT_GT(cluster.slack(), 100_us);
  EXPECT_GT(make_cdi_link(cluster).latency, 100_us);  // PCIe stub + network slack
}

TEST(CdiLink, LatencyIsPcieStubPlusSlack) {
  CdiNetworkParams p;
  const LinkParams link = make_cdi_link(p);
  EXPECT_EQ(link.latency, p.pcie_stub_latency + p.slack());
  EXPECT_EQ(link.bandwidth_gib_s, p.bandwidth_gib_s);
  EXPECT_EQ(link.name, "cdi-network");
}

TEST(SlackInjector, CountsCallsAndTotals) {
  SlackInjector inj{5_us};
  EXPECT_EQ(inj.slack_per_call(), 5_us);
  EXPECT_EQ(inj.on_api_call(), 5_us);
  EXPECT_EQ(inj.on_api_call(), 5_us);
  EXPECT_EQ(inj.calls_delayed(), 2);
  EXPECT_EQ(inj.total_injected(), 10_us);
  inj.reset_counters();
  EXPECT_EQ(inj.calls_delayed(), 0);
  EXPECT_EQ(inj.total_injected(), SimDuration::zero());
}

TEST(SlackInjector, ZeroSlackStillCounts) {
  SlackInjector inj;
  EXPECT_EQ(inj.on_api_call(), SimDuration::zero());
  EXPECT_EQ(inj.calls_delayed(), 1);
}

TEST(Equation1, RemovesInjectedSlack) {
  // Time_NoSlack = Time - num_calls * slack.
  const SimDuration measured = 1_s + 500_us;
  EXPECT_EQ(equation1_no_slack_time(measured, 500, 1_us), 1_s);
  EXPECT_EQ(equation1_no_slack_time(measured, 0, 1_us), measured);
  EXPECT_EQ(equation1_no_slack_time(measured, 500, SimDuration::zero()), measured);
}

TEST(Equation1, PerSubmitterDividesCallsAcrossConcurrentSubmitters) {
  // 4 submitters running concurrently: the wall clock extends by one
  // submitter's share of the injected delay, not the total.
  const SimDuration measured = 1_s + 500_us;
  EXPECT_EQ(equation1_per_submitter(measured, 2000, 4, 1_us), 1_s);
  // One submitter degenerates to plain Equation 1.
  EXPECT_EQ(equation1_per_submitter(measured, 500, 1, 1_us),
            equation1_no_slack_time(measured, 500, 1_us));
  EXPECT_EQ(equation1_per_submitter(measured, 2000, 4, SimDuration::zero()), measured);
}

}  // namespace
}  // namespace rsd::interconnect

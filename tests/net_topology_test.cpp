// Link-graph machine model: graph construction, deterministic routing,
// and the fabric factories.
#include "interconnect/topology.hpp"

#include <gtest/gtest.h>

#include "core/error.hpp"
#include "interconnect/fabric.hpp"

namespace rsd::net {
namespace {

using rsd::duration::microseconds;

TEST(Topology, AddLinkValidatesEndpointsAndParameters) {
  Topology topo;
  const NodeId a = topo.add_node(NodeDesc{.name = "a"});
  const NodeId b = topo.add_node(NodeDesc{.name = "b"});

  EXPECT_THROW(topo.add_link(LinkDesc{a, a, LinkKind::kNvlink, 1.0, {}}), Error);
  EXPECT_THROW(topo.add_link(LinkDesc{a, 99, LinkKind::kNvlink, 1.0, {}}), Error);
  EXPECT_THROW(topo.add_link(LinkDesc{a, b, LinkKind::kNvlink, 0.0, {}}), Error);
  EXPECT_THROW(
      topo.add_link(LinkDesc{a, b, LinkKind::kNvlink, 1.0, duration::nanoseconds(-1)}),
      Error);

  topo.add_duplex(a, b, LinkKind::kNvlink, 100.0, microseconds(1.0));
  EXPECT_EQ(topo.link_count(), 2u);
  EXPECT_EQ(topo.device_count(), 2);
}

TEST(Topology, RoutePrefersLowerLatencyThenFewerHops) {
  Topology topo;
  const NodeId a = topo.add_node(NodeDesc{.name = "a"});
  const NodeId b = topo.add_node(NodeDesc{.name = "b"});
  const NodeId via = topo.add_node(NodeDesc{.name = "sw", .kind = NodeKind::kSwitch});
  // Direct link is slow (10us); the two-hop path through the switch costs
  // 2us + 2us and wins on latency.
  topo.add_link(LinkDesc{a, b, LinkKind::kNvlink, 100.0, microseconds(10.0)});
  topo.add_link(LinkDesc{a, via, LinkKind::kSwitch, 100.0, microseconds(2.0)});
  topo.add_link(LinkDesc{via, b, LinkKind::kSwitch, 100.0, microseconds(2.0)});

  const Path& p = topo.route(a, b);
  EXPECT_EQ(p.links.size(), 2u);
  EXPECT_EQ(p.latency, microseconds(4.0));

  EXPECT_THROW((void)topo.route(a, a), Error);
}

TEST(Topology, IntermediateForwardLatencyIsCharged) {
  Topology topo;
  const NodeId a = topo.add_node(NodeDesc{.name = "a"});
  const NodeId sw = topo.add_node(NodeDesc{
      .name = "sw", .kind = NodeKind::kSwitch, .forward_latency = microseconds(0.5)});
  const NodeId b = topo.add_node(NodeDesc{.name = "b"});
  topo.add_link(LinkDesc{a, sw, LinkKind::kSwitch, 100.0, microseconds(1.0)});
  topo.add_link(LinkDesc{sw, b, LinkKind::kSwitch, 100.0, microseconds(1.0)});

  // 1us + 0.5us forwarding + 1us; the endpoints forward nothing.
  EXPECT_EQ(topo.route(a, b).latency, microseconds(2.5));
}

TEST(Topology, TransferTimeUsesBottleneckBandwidth) {
  Topology topo;
  const NodeId a = topo.add_node(NodeDesc{.name = "a"});
  const NodeId m = topo.add_node(NodeDesc{.name = "m", .kind = NodeKind::kSwitch});
  const NodeId b = topo.add_node(NodeDesc{.name = "b"});
  topo.add_link(LinkDesc{a, m, LinkKind::kNvlink, 200.0, microseconds(1.0)});
  topo.add_link(LinkDesc{m, b, LinkKind::kNvlink, 50.0, microseconds(1.0)});

  const Bytes bytes = 50 * kMiB;
  const SimDuration expected =
      microseconds(2.0) +
      duration::seconds(static_cast<double>(bytes) / (50.0 * static_cast<double>(kGiB)));
  EXPECT_EQ(topo.transfer_time(a, b, bytes), expected);
  EXPECT_EQ(topo.route(a, b).bottleneck_gib_s, 50.0);
}

TEST(Topology, UnreachableRouteThrows) {
  Topology topo;
  const NodeId a = topo.add_node(NodeDesc{.name = "a"});
  const NodeId b = topo.add_node(NodeDesc{.name = "b"});
  topo.add_link(LinkDesc{a, b, LinkKind::kNvlink, 1.0, microseconds(1.0)});
  EXPECT_THROW((void)topo.route(b, a), Error);  // directed: no reverse link
}

TEST(Fabric, ShapesHaveExpectedStructure) {
  FabricParams params;
  params.gpus = 8;

  params.kind = FabricKind::kRing;
  const Topology ring = build_fabric(params);
  EXPECT_EQ(ring.node_count(), 8u);
  EXPECT_EQ(ring.link_count(), 16u);  // 8 duplex neighbor pairs
  EXPECT_EQ(ring.route(ring.device(0), ring.device(1)).latency, params.link_latency);

  params.kind = FabricKind::kFullMesh;
  const Topology mesh = build_fabric(params);
  EXPECT_EQ(mesh.link_count(), 8u * 7u);  // every ordered pair
  EXPECT_EQ(mesh.route(mesh.device(0), mesh.device(5)).links.size(), 1u);

  params.kind = FabricKind::kElectricalSwitch;
  const Topology eswitch = build_fabric(params);
  EXPECT_EQ(eswitch.node_count(), 9u);
  // A flat fabric's one switch serves the whole row: untagged, unsuffixed.
  EXPECT_EQ(eswitch.node(8).name, "eswitch");
  EXPECT_EQ(eswitch.node(8).chassis, -1);
  const Path& via_switch = eswitch.route(eswitch.device(0), eswitch.device(7));
  EXPECT_EQ(via_switch.links.size(), 2u);
  EXPECT_EQ(via_switch.latency,
            params.link_latency + params.switch_hop_latency + params.link_latency);

  params.kind = FabricKind::kOpticalCircuit;
  const Topology ocs = build_fabric(params);
  EXPECT_EQ(ocs.node(8).name, "ocs");
  EXPECT_EQ(ocs.node(8).chassis, -1);
  EXPECT_EQ(ocs.route(ocs.device(0), ocs.device(7)).optical_hops, 1);
  EXPECT_EQ(ocs.ocs_reconfigure(), params.ocs_reconfigure);
  EXPECT_EQ(eswitch.route(eswitch.device(0), eswitch.device(7)).optical_hops, 0);
}

TEST(Fabric, TwoGpuRingIsOneDuplexPair) {
  FabricParams params;
  params.gpus = 2;
  params.kind = FabricKind::kRing;
  const Topology topo = build_fabric(params);
  EXPECT_EQ(topo.link_count(), 2u);
}

TEST(Fabric, ParseNamesAndAliases) {
  EXPECT_EQ(parse_fabric_kind("ring"), FabricKind::kRing);
  EXPECT_EQ(parse_fabric_kind("fullmesh"), FabricKind::kFullMesh);
  EXPECT_EQ(parse_fabric_kind("full-mesh"), FabricKind::kFullMesh);
  EXPECT_EQ(parse_fabric_kind("eswitch"), FabricKind::kElectricalSwitch);
  EXPECT_EQ(parse_fabric_kind("electrical"), FabricKind::kElectricalSwitch);
  EXPECT_EQ(parse_fabric_kind("ocs"), FabricKind::kOpticalCircuit);
  EXPECT_EQ(parse_fabric_kind("optical"), FabricKind::kOpticalCircuit);
  EXPECT_THROW((void)parse_fabric_kind("torus"), Error);
  for (const FabricKind kind : all_fabric_kinds()) {
    EXPECT_EQ(parse_fabric_kind(to_string(kind)), kind);
  }
}

TEST(Fabric, ChassisTagsFollowGpusPerChassis) {
  FabricParams params;
  params.gpus = 16;
  params.gpus_per_chassis = 4;
  const Topology topo = build_fabric(params);
  EXPECT_EQ(topo.device_chassis_tags().size(), 4u);
  EXPECT_EQ(topo.node(topo.device(0)).chassis, 0);
  EXPECT_EQ(topo.node(topo.device(15)).chassis, 3);
}

TEST(Fabric, MultiChassisEmitsNicsAndFibre) {
  FabricParams params;
  params.gpus = 16;
  params.gpus_per_chassis = 4;
  params.chassis_nics = true;
  for (const FabricKind kind : all_fabric_kinds()) {
    params.kind = kind;
    const Topology topo = build_fabric(params);
    ASSERT_EQ(topo.nic_count(), 4) << to_string(kind);
    ASSERT_EQ(topo.device_chassis_tags().size(), 4u) << to_string(kind);
    for (int c = 0; c < 4; ++c) {
      const NodeId nic = topo.chassis_nic(c);
      EXPECT_EQ(topo.node(nic).kind, NodeKind::kNic) << to_string(kind);
      EXPECT_EQ(topo.node(nic).chassis, c) << to_string(kind);
    }
    EXPECT_THROW((void)topo.chassis_nic(4), Error) << to_string(kind);

    // A chassis-crossing route must pay the NIC and fibre hops explicitly;
    // an intra-chassis route must not touch either.
    const Path& cross = topo.route(topo.device(0), topo.device(15));
    bool saw_nic = false;
    bool saw_fibre = false;
    for (const LinkId id : cross.links) {
      saw_nic = saw_nic || topo.link(id).kind == LinkKind::kNic;
      saw_fibre = saw_fibre || topo.link(id).kind == LinkKind::kFibre;
    }
    EXPECT_TRUE(saw_nic) << to_string(kind);
    EXPECT_TRUE(saw_fibre) << to_string(kind);
    // A 0.35us NIC port must never shortcut an intra-chassis route (the
    // OCS chassis legitimately uses fibre-class ports internally).
    const Path& intra = topo.route(topo.device(0), topo.device(3));
    for (const LinkId id : intra.links) {
      EXPECT_NE(topo.link(id).kind, LinkKind::kNic) << to_string(kind);
    }
  }
}

TEST(Fabric, FlatFabricHasNoNicsAndRejectsChassisNicLookup) {
  FabricParams params;
  params.gpus = 8;
  const Topology topo = build_fabric(params);
  EXPECT_EQ(topo.nic_count(), 0);
  EXPECT_THROW((void)topo.chassis_nic(0), Error);
}

TEST(Fabric, HostEndpointRequiresChassisNics) {
  FabricParams params;
  params.gpus = 8;
  params.gpus_per_chassis = 4;
  params.host_endpoint = true;
  EXPECT_THROW((void)build_fabric(params), Error);

  params.chassis_nics = true;
  const Topology topo = build_fabric(params);
  ASSERT_EQ(topo.host_count(), 1);
  // The host attaches behind a PCIe stub into nic0, so a host->GPU route
  // starts on PCIe.
  const Path& path = topo.route(topo.host(0), topo.device(0));
  ASSERT_FALSE(path.links.empty());
  EXPECT_EQ(topo.link(path.links.front()).kind, LinkKind::kPcie);
}

}  // namespace
}  // namespace rsd::net

// Link-graph machine model: graph construction, deterministic routing,
// and the fabric factories.
#include "interconnect/topology.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <limits>
#include <ostream>
#include <string>
#include <vector>

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

TEST(Topology, AddFullMeshValidatesMembersAndParameters) {
  Topology topo;
  const NodeId a = topo.add_node(NodeDesc{.name = "a"});
  const NodeId b = topo.add_node(NodeDesc{.name = "b"});
  const NodeId c = topo.add_node(NodeDesc{.name = "c"});

  EXPECT_THROW(topo.add_full_mesh({a, b, a}, LinkKind::kNvlink, 1.0, {}), Error);
  EXPECT_THROW(topo.add_full_mesh({a, 99}, LinkKind::kNvlink, 1.0, {}), Error);
  EXPECT_THROW(topo.add_full_mesh({a, -1}, LinkKind::kNvlink, 1.0, {}), Error);
  EXPECT_THROW(topo.add_full_mesh({a, b}, LinkKind::kNvlink, 0.0, {}), Error);
  EXPECT_THROW(topo.add_full_mesh({a, b}, LinkKind::kNvlink,
                                  std::numeric_limits<double>::quiet_NaN(), {}),
               Error);
  EXPECT_THROW(
      topo.add_full_mesh({a, b}, LinkKind::kNvlink, 1.0, duration::nanoseconds(-1)), Error);
  EXPECT_EQ(topo.link_count(), 0u);

  // Fewer than two members wire nothing.
  topo.add_full_mesh({a}, LinkKind::kNvlink, 1.0, {});
  EXPECT_EQ(topo.link_count(), 0u);

  // Ids continue across explicit links and meshes in insertion order.
  topo.add_link(LinkDesc{a, b, LinkKind::kPcie, 5.0, microseconds(3.0)});
  topo.add_full_mesh({c, a, b}, LinkKind::kNvlink, 100.0, microseconds(1.0));
  topo.add_link(LinkDesc{b, c, LinkKind::kPcie, 7.0, microseconds(4.0)});
  ASSERT_EQ(topo.link_count(), 8u);
  EXPECT_EQ(topo.link(0).kind, LinkKind::kPcie);
  // Pairs (c,a), (c,b), (a,b): ids 1/2, 3/4, 5/6.
  EXPECT_EQ(topo.link(1).src, c);
  EXPECT_EQ(topo.link(1).dst, a);
  EXPECT_EQ(topo.link(2).src, a);
  EXPECT_EQ(topo.link(2).dst, c);
  EXPECT_EQ(topo.link(4).src, b);
  EXPECT_EQ(topo.link(4).dst, c);
  EXPECT_EQ(topo.link(6).src, b);
  EXPECT_EQ(topo.link(6).dst, a);
  EXPECT_EQ(topo.link(6).bandwidth_gib_s, 100.0);
  EXPECT_EQ(topo.link(7).src, b);
  EXPECT_EQ(topo.link(7).dst, c);
  EXPECT_EQ(topo.link(7).bandwidth_gib_s, 7.0);
  EXPECT_THROW((void)topo.link(8), Error);
  EXPECT_THROW((void)topo.link(-1), Error);
}

TEST(Topology, MeshLinksTieInInsertionOrder) {
  // Parallel links of equal latency tie on (latency, hops), and the one
  // relaxed first wins: a mesh's links sit where the mesh was added among
  // its members' explicit links, as the add_duplex loop's links did.
  for (const bool one_entry : {true, false}) {
    Topology topo;
    const NodeId a = topo.add_node(NodeDesc{.name = "a"});
    const NodeId b = topo.add_node(NodeDesc{.name = "b"});
    const NodeId c = topo.add_node(NodeDesc{.name = "c"});
    topo.add_link(LinkDesc{a, b, LinkKind::kPcie, 1.0, microseconds(1.0)});
    if (one_entry) {
      topo.add_full_mesh({a, b, c}, LinkKind::kNvlink, 1.0, microseconds(1.0));
    } else {
      topo.add_duplex(a, b, LinkKind::kNvlink, 1.0, microseconds(1.0));
      topo.add_duplex(a, c, LinkKind::kNvlink, 1.0, microseconds(1.0));
      topo.add_duplex(b, c, LinkKind::kNvlink, 1.0, microseconds(1.0));
    }
    topo.add_link(LinkDesc{c, a, LinkKind::kPcie, 1.0, microseconds(1.0)});

    // a -> b: the explicit link 0 came before the mesh's link 1.
    EXPECT_EQ(topo.route(a, b).links, std::vector<LinkId>{0}) << one_entry;
    EXPECT_EQ(topo.route_dijkstra(a, b).links, std::vector<LinkId>{0}) << one_entry;
    // c -> a: the mesh's link 4 came before the explicit link 7.
    EXPECT_EQ(topo.route(c, a).links, std::vector<LinkId>{4}) << one_entry;
    EXPECT_EQ(topo.route_dijkstra(c, a).links, std::vector<LinkId>{4}) << one_entry;
  }
}

TEST(Topology, MeshIdsNearTheLinkIdLimitDecode) {
  // 46,341 members take 2,147,441,940 ids, just under 2^31: nothing is
  // stored per link, so the mesh is cheap, and every id computes in 64
  // bits.
  constexpr int kMembers = 46'341;
  Topology topo;
  std::vector<NodeId> members;
  for (int i = 0; i < kMembers; ++i) members.push_back(topo.add_node(NodeDesc{}));
  topo.add_full_mesh(members, LinkKind::kNvlink, 1.0, microseconds(1.0));
  ASSERT_EQ(topo.link_count(), 2'147'441'940u);
  // The last pair, (n - 2, n - 1), owns the last two ids.
  const LinkDesc forward = topo.link(2'147'441'938);
  EXPECT_EQ(forward.src, kMembers - 2);
  EXPECT_EQ(forward.dst, kMembers - 1);
  const LinkDesc reverse = topo.link(2'147'441'939);
  EXPECT_EQ(reverse.src, kMembers - 1);
  EXPECT_EQ(reverse.dst, kMembers - 2);

  // 41,708 ids remain below 2^31: a second mesh of 205 members needs
  // 41,820 and is refused whole; one of 204 needs 41,412 and fits.
  const std::vector<NodeId> too_many(members.begin(), members.begin() + 205);
  EXPECT_THROW(topo.add_full_mesh(too_many, LinkKind::kNvlink, 1.0, {}), Error);
  EXPECT_EQ(topo.link_count(), 2'147'441'940u);
  const std::vector<NodeId> fits(members.begin(), members.begin() + 204);
  topo.add_full_mesh(fits, LinkKind::kNvlink, 1.0, {});
  EXPECT_EQ(topo.link_count(), 2'147'483'352u);
  EXPECT_EQ(topo.link(2'147'483'351).src, 203);  // its last link, 203 -> 202
}

/// Reference: build_fabric's full-mesh graph wired with one add_duplex per
/// member pair — chassis meshes, NIC attach links, the NIC mesh and the
/// host stub, in build_fabric's order.
Topology explicit_fullmesh(const FabricParams& p) {
  Topology topo;
  for (int i = 0; i < p.gpus; ++i) {
    topo.add_node(NodeDesc{.name = "gpu" + std::to_string(i),
                           .kind = NodeKind::kGpu,
                           .chassis = i / p.gpus_per_chassis});
  }
  const auto mesh = [&topo](const std::vector<NodeId>& members, LinkKind kind, double gib_s,
                            SimDuration latency) {
    for (std::size_t i = 0; i < members.size(); ++i) {
      for (std::size_t j = i + 1; j < members.size(); ++j) {
        topo.add_duplex(members[i], members[j], kind, gib_s, latency);
      }
    }
  };
  if (!p.chassis_nics) {
    std::vector<NodeId> devices;
    for (int i = 0; i < p.gpus; ++i) devices.push_back(topo.device(i));
    mesh(devices, LinkKind::kNvlink, p.link_bandwidth_gib_s, p.link_latency);
    return topo;
  }
  std::vector<NodeId> nics;
  for (int lo = 0, c = 0; lo < p.gpus; lo += p.gpus_per_chassis, ++c) {
    std::vector<NodeId> members;
    for (int i = lo; i < std::min(p.gpus, lo + p.gpus_per_chassis); ++i) {
      members.push_back(topo.device(i));
    }
    mesh(members, LinkKind::kNvlink, p.link_bandwidth_gib_s, p.link_latency);
    nics.push_back(topo.add_node(
        NodeDesc{.name = "nic" + std::to_string(c), .kind = NodeKind::kNic, .chassis = c}));
    topo.add_duplex(members.front(), nics.back(), LinkKind::kNic, p.nic_bandwidth_gib_s,
                    p.nic_latency);
  }
  mesh(nics, LinkKind::kFibre, p.fibre_bandwidth_gib_s, p.fibre_latency);
  if (p.host_endpoint) {
    const NodeId host = topo.add_node(NodeDesc{.name = "host0", .kind = NodeKind::kHost});
    topo.add_duplex(host, nics.front(), LinkKind::kPcie, p.host_bandwidth_gib_s,
                    p.host_latency);
  }
  return topo;
}

void expect_same_path(const Path& got, const Path& want, const std::string& where) {
  EXPECT_EQ(got.links, want.links) << where;
  EXPECT_EQ(got.latency, want.latency) << where;
  EXPECT_EQ(got.bottleneck_gib_s, want.bottleneck_gib_s) << where;
  EXPECT_EQ(got.optical_hops, want.optical_hops) << where;
}

struct MeshCase {
  const char* name;
  int gpus;
  bool chassis_nics;
};

// Names the case in test listings (gtest would otherwise print its bytes).
void PrintTo(const MeshCase& c, std::ostream* os) { *os << c.name; }

class MeshEquivalence : public testing::TestWithParam<MeshCase> {};

// The one-entry mesh hands out the same ids, link descriptions, routes,
// via links and tie-breaks as explicit add_duplex loops.
TEST_P(MeshEquivalence, MatchesExplicitDuplexLoops) {
  FabricParams params;
  params.kind = FabricKind::kFullMesh;
  params.gpus = GetParam().gpus;
  params.gpus_per_chassis = 8;
  params.chassis_nics = GetParam().chassis_nics;
  params.host_endpoint = GetParam().chassis_nics;
  const Topology mesh = build_fabric(params);
  const Topology want = explicit_fullmesh(params);

  ASSERT_EQ(mesh.node_count(), want.node_count());
  ASSERT_EQ(mesh.link_count(), want.link_count());
  for (LinkId id = 0; id < static_cast<LinkId>(want.link_count()); ++id) {
    const LinkDesc got = mesh.link(id);
    const LinkDesc ref = want.link(id);
    EXPECT_EQ(got.src, ref.src) << "link " << id;
    EXPECT_EQ(got.dst, ref.dst) << "link " << id;
    EXPECT_EQ(got.kind, ref.kind) << "link " << id;
    EXPECT_EQ(got.bandwidth_gib_s, ref.bandwidth_gib_s) << "link " << id;
    EXPECT_EQ(got.latency, ref.latency) << "link " << id;
  }
  // Every node of these graphs is a device, a NIC or the host.
  const auto n = static_cast<NodeId>(want.node_count());
  for (NodeId src = 0; src < n; ++src) {
    for (NodeId dst = 0; dst < n; ++dst) {
      if (src == dst) continue;
      const std::string where = want.node(src).name + " -> " + want.node(dst).name;
      expect_same_path(mesh.route(src, dst), want.route(src, dst), where);
      expect_same_path(mesh.route_dijkstra(src, dst), want.route_dijkstra(src, dst), where);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Fabrics, MeshEquivalence,
                         testing::Values(MeshCase{"flat2", 2, false},
                                         MeshCase{"flat3", 3, false},
                                         MeshCase{"flat8", 8, false},
                                         MeshCase{"flat33", 33, false},
                                         MeshCase{"chassis24", 24, true},
                                         MeshCase{"chassis20", 20, true}),
                         [](const testing::TestParamInfo<MeshCase>& info) {
                           return std::string{info.param.name};
                         });

TEST(Fabric, LargeFlatMeshStoresNoLinks) {
  FabricParams params;
  params.kind = FabricKind::kFullMesh;
  params.gpus = 2048;
  const Topology topo = build_fabric(params);
  EXPECT_EQ(topo.link_count(), 4'192'256u);
  const Path& path = topo.route(topo.device(0), topo.device(2047));
  ASSERT_EQ(path.links.size(), 1u);
  EXPECT_EQ(path.links.front(), 4092);
  const LinkDesc last = topo.link(4'192'255);
  EXPECT_EQ(last.src, topo.device(2047));
  EXPECT_EQ(last.dst, topo.device(2046));
}

TEST(Fabric, FlatMeshPastTheLinkIdRangeIsRejected) {
  FabricParams params;
  params.kind = FabricKind::kFullMesh;
  params.gpus = 46'342;
  try {
    (void)build_fabric(params);
    FAIL() << "a 46,342-GPU flat mesh overflows LinkId";
  } catch (const Error& e) {
    EXPECT_EQ(e.code(), ErrorCode::kInvalidArgument);
    EXPECT_NE(std::string{e.what()}.find("FabricParams::gpus"), std::string::npos)
        << e.what();
  }
}

struct BadParam {
  const char* name;   ///< Test-name suffix.
  const char* field;  ///< The FabricParams field the message must name.
  std::function<void(FabricParams&)> spoil;
};

void PrintTo(const BadParam& p, std::ostream* os) { *os << p.name; }

class FabricParamsCheck : public testing::TestWithParam<BadParam> {};

TEST_P(FabricParamsCheck, RejectsTheFieldByName) {
  for (const FabricKind kind : all_fabric_kinds()) {
    FabricParams params;
    params.kind = kind;
    params.gpus = 16;
    params.gpus_per_chassis = 4;
    params.chassis_nics = true;
    params.host_endpoint = true;
    GetParam().spoil(params);
    try {
      (void)build_fabric(params);
      ADD_FAILURE() << to_string(kind) << " accepted a bad " << GetParam().field;
    } catch (const Error& e) {
      EXPECT_EQ(e.code(), ErrorCode::kInvalidArgument) << to_string(kind);
      EXPECT_NE(std::string{e.what()}.find(std::string{"FabricParams::"} + GetParam().field),
                std::string::npos)
          << e.what();
    }
  }
}

constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();
constexpr double kInf = std::numeric_limits<double>::infinity();
const SimDuration kNegative = duration::nanoseconds(-1);

INSTANTIATE_TEST_SUITE_P(
    Fields, FabricParamsCheck,
    testing::Values(
        BadParam{"gpus", "gpus", [](FabricParams& p) { p.gpus = 0; }},
        BadParam{"gpus_per_chassis", "gpus_per_chassis",
                 [](FabricParams& p) { p.gpus_per_chassis = 0; }},
        BadParam{"host_endpoint", "host_endpoint",
                 [](FabricParams& p) { p.chassis_nics = false; }},
        BadParam{"link_bandwidth_zero", "link_bandwidth_gib_s",
                 [](FabricParams& p) { p.link_bandwidth_gib_s = 0.0; }},
        BadParam{"link_bandwidth_nan", "link_bandwidth_gib_s",
                 [](FabricParams& p) { p.link_bandwidth_gib_s = kNaN; }},
        BadParam{"link_bandwidth_inf", "link_bandwidth_gib_s",
                 [](FabricParams& p) { p.link_bandwidth_gib_s = kInf; }},
        BadParam{"nic_bandwidth_negative", "nic_bandwidth_gib_s",
                 [](FabricParams& p) { p.nic_bandwidth_gib_s = -24.0; }},
        BadParam{"fibre_bandwidth_nan", "fibre_bandwidth_gib_s",
                 [](FabricParams& p) { p.fibre_bandwidth_gib_s = kNaN; }},
        BadParam{"host_bandwidth_inf", "host_bandwidth_gib_s",
                 [](FabricParams& p) { p.host_bandwidth_gib_s = kInf; }},
        BadParam{"link_latency", "link_latency",
                 [](FabricParams& p) { p.link_latency = kNegative; }},
        BadParam{"switch_hop_latency", "switch_hop_latency",
                 [](FabricParams& p) { p.switch_hop_latency = kNegative; }},
        BadParam{"ocs_reconfigure", "ocs_reconfigure",
                 [](FabricParams& p) { p.ocs_reconfigure = kNegative; }},
        BadParam{"nic_latency", "nic_latency",
                 [](FabricParams& p) { p.nic_latency = kNegative; }},
        BadParam{"fibre_latency", "fibre_latency",
                 [](FabricParams& p) { p.fibre_latency = kNegative; }},
        BadParam{"host_latency", "host_latency",
                 [](FabricParams& p) { p.host_latency = kNegative; }}),
    [](const testing::TestParamInfo<BadParam>& info) { return std::string{info.param.name}; });

TEST(Fabric, ZeroLatenciesAreLegal) {
  FabricParams params;
  params.gpus = 16;
  params.gpus_per_chassis = 4;
  params.chassis_nics = true;
  params.host_endpoint = true;
  params.link_latency = SimDuration::zero();
  params.switch_hop_latency = SimDuration::zero();
  params.ocs_reconfigure = SimDuration::zero();
  params.nic_latency = SimDuration::zero();
  params.fibre_latency = SimDuration::zero();
  params.host_latency = SimDuration::zero();
  for (const FabricKind kind : all_fabric_kinds()) {
    params.kind = kind;
    EXPECT_NO_THROW((void)build_fabric(params)) << to_string(kind);
  }
}

}  // namespace
}  // namespace rsd::net

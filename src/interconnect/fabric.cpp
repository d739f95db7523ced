#include "interconnect/fabric.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <string>

#include "core/error.hpp"

namespace rsd::net {

const char* to_string(FabricKind kind) {
  switch (kind) {
    case FabricKind::kRing: return "ring";
    case FabricKind::kFullMesh: return "fullmesh";
    case FabricKind::kElectricalSwitch: return "eswitch";
    case FabricKind::kOpticalCircuit: return "ocs";
  }
  return "?";
}

const char* to_string(Algorithm algorithm) {
  switch (algorithm) {
    case Algorithm::kRing: return "ring";
    case Algorithm::kTree: return "tree";
    case Algorithm::kHierarchical: return "hierarchical";
  }
  return "?";
}

FabricKind parse_fabric_kind(std::string_view name) {
  if (name == "ring") return FabricKind::kRing;
  if (name == "fullmesh" || name == "full-mesh" || name == "mesh") {
    return FabricKind::kFullMesh;
  }
  if (name == "eswitch" || name == "electrical-switch" || name == "electrical") {
    return FabricKind::kElectricalSwitch;
  }
  if (name == "ocs" || name == "optical" || name == "optical-circuit-switch") {
    return FabricKind::kOpticalCircuit;
  }
  throw Error{ErrorCode::kInvalidArgument,
              "unknown fabric '" + std::string{name} +
                  "' (expected ring, fullmesh, eswitch, or ocs)"};
}

const std::vector<FabricKind>& all_fabric_kinds() {
  static const std::vector<FabricKind> kinds{
      FabricKind::kRing, FabricKind::kFullMesh, FabricKind::kElectricalSwitch,
      FabricKind::kOpticalCircuit};
  return kinds;
}

namespace {

/// The row-network constants every fabric shares: switch forwarding, NIC,
/// fibre and host-stub links of the default CDI network path.
constexpr interconnect::CdiNetworkParams kRowNetwork{};

/// Rejects, by field name, a FabricParams the graph cannot carry: a link
/// bandwidth that is not finite and positive, a negative link latency,
/// and a flat mesh with more links than LinkId (int32) can number. A zero
/// latency is legal (a row checks its own ring edges).
void check_params(const FabricParams& p) {
  const auto reject = [](const std::string& field, const std::string& rule) {
    throw Error{ErrorCode::kInvalidArgument,
                "net::build_fabric: FabricParams::" + field + " " + rule};
  };
  if (p.gpus < 1) reject("gpus", "must be >= 1");
  if (p.gpus_per_chassis < 1) reject("gpus_per_chassis", "must be >= 1");
  if (p.host_endpoint && !p.chassis_nics) {
    reject("host_endpoint", "requires chassis_nics (the host attaches behind nic0)");
  }
  if (!std::isfinite(p.link_bandwidth_gib_s) || p.link_bandwidth_gib_s <= 0.0) {
    reject("link_bandwidth_gib_s", "must be finite and > 0");
  }
  if (p.link_latency.ns() < 0) reject("link_latency", "must be >= 0");
  const auto gpus = static_cast<std::int64_t>(p.gpus);
  if (p.kind == FabricKind::kFullMesh && !p.chassis_nics &&
      gpus * (gpus - 1) - 1 > std::numeric_limits<LinkId>::max()) {
    reject("gpus", "= " + std::to_string(p.gpus) +
                       ": a flat full mesh numbers gpus * (gpus - 1) links, past "
                       "the int32 LinkId above 46,341 GPUs");
  }
}

void add_gpus(Topology& topo, const FabricParams& params) {
  for (int i = 0; i < params.gpus; ++i) {
    topo.add_node(NodeDesc{.name = "gpu" + std::to_string(i),
                           .kind = NodeKind::kGpu,
                           .chassis = i / params.gpus_per_chassis});
  }
}

/// Wire one fabric shape among `members` and return the node a chassis NIC
/// hangs off: the switch where the shape has one, the first member
/// otherwise. Attaching the NIC to a single node keeps it off every
/// intra-chassis route — a 0.35 us NIC port must not shortcut a 2 us
/// NVLink ring. A flat fabric passes every device with `chassis` -1, so
/// its switch stays untagged and unsuffixed ("eswitch", "ocs").
NodeId wire_chassis(Topology& topo, const FabricParams& params,
                    const std::vector<NodeId>& members, int chassis) {
  const std::string suffix = chassis >= 0 ? std::to_string(chassis) : std::string{};
  const int n = static_cast<int>(members.size());
  switch (params.kind) {
    case FabricKind::kRing:
      for (int i = 0; i < n; ++i) {
        const int next = (i + 1) % n;
        if (next == i) break;                 // single GPU: no links
        if (n == 2 && i == 1) break;          // avoid doubling 0 <-> 1
        topo.add_duplex(members[static_cast<std::size_t>(i)],
                        members[static_cast<std::size_t>(next)], LinkKind::kNvlink,
                        params.link_bandwidth_gib_s, params.link_latency);
      }
      return members.front();

    case FabricKind::kFullMesh:
      topo.add_full_mesh(members, LinkKind::kNvlink, params.link_bandwidth_gib_s,
                         params.link_latency);
      return members.front();

    case FabricKind::kElectricalSwitch: {
      const NodeId sw = topo.add_node(NodeDesc{.name = "eswitch" + suffix,
                                               .kind = NodeKind::kSwitch,
                                               .chassis = chassis,
                                               .forward_latency = kRowNetwork.per_hop_latency});
      for (const NodeId gpu : members) {
        topo.add_duplex(gpu, sw, LinkKind::kSwitch, params.link_bandwidth_gib_s,
                        params.link_latency);
      }
      return sw;
    }

    case FabricKind::kOpticalCircuit: {
      const NodeId sw = topo.add_node(NodeDesc{.name = "ocs" + suffix,
                                               .kind = NodeKind::kSwitch,
                                               .chassis = chassis,
                                               .optical = true});
      for (const NodeId gpu : members) {
        topo.add_duplex(gpu, sw, LinkKind::kFibre, params.link_bandwidth_gib_s,
                        params.link_latency);
      }
      return sw;
    }
  }
  return members.front();
}

/// The multi-chassis graph: the fabric shape recurs at two levels — once
/// over NVLink-class links inside each chassis, once over fibre between
/// the per-chassis NICs (a ring of NICs, a NIC full mesh, or a row-level
/// switch). Optionally a kHost endpoint attaches behind a PCIe stub into
/// nic0 — the CDI host-side entry the transport binding routes through.
void build_multi_chassis(Topology& topo, const FabricParams& params) {
  const int chassis_count =
      (params.gpus + params.gpus_per_chassis - 1) / params.gpus_per_chassis;
  std::vector<NodeId> nics;
  nics.reserve(static_cast<std::size_t>(chassis_count));
  for (int c = 0; c < chassis_count; ++c) {
    std::vector<NodeId> members;
    const int lo = c * params.gpus_per_chassis;
    const int hi = std::min(params.gpus, (c + 1) * params.gpus_per_chassis);
    members.reserve(static_cast<std::size_t>(hi - lo));
    for (int i = lo; i < hi; ++i) members.push_back(topo.device(i));
    const NodeId attach = wire_chassis(topo, params, members, c);
    const NodeId nic = topo.add_node(
        NodeDesc{.name = "nic" + std::to_string(c), .kind = NodeKind::kNic, .chassis = c});
    topo.add_duplex(attach, nic, LinkKind::kNic, kRowNetwork.bandwidth_gib_s,
                    kRowNetwork.nic_latency);
    nics.push_back(nic);
  }

  if (chassis_count > 1) {
    const SimDuration fibre = interconnect::fibre_delay(kRowNetwork.fibre_km);
    switch (params.kind) {
      case FabricKind::kRing:
        for (int c = 0; c < chassis_count; ++c) {
          const int next = (c + 1) % chassis_count;
          if (chassis_count == 2 && c == 1) break;  // avoid doubling 0 <-> 1
          topo.add_duplex(nics[static_cast<std::size_t>(c)],
                          nics[static_cast<std::size_t>(next)], LinkKind::kFibre,
                          kRowNetwork.bandwidth_gib_s, fibre);
        }
        break;

      case FabricKind::kFullMesh:
        topo.add_full_mesh(nics, LinkKind::kFibre, kRowNetwork.bandwidth_gib_s, fibre);
        break;

      case FabricKind::kElectricalSwitch: {
        const NodeId row = topo.add_node(NodeDesc{.name = "row_eswitch",
                                                  .kind = NodeKind::kSwitch,
                                                  .forward_latency = kRowNetwork.per_hop_latency});
        for (const NodeId nic : nics) {
          topo.add_duplex(nic, row, LinkKind::kFibre, kRowNetwork.bandwidth_gib_s, fibre);
        }
        break;
      }

      case FabricKind::kOpticalCircuit: {
        const NodeId row = topo.add_node(
            NodeDesc{.name = "row_ocs", .kind = NodeKind::kSwitch, .optical = true});
        for (const NodeId nic : nics) {
          topo.add_duplex(nic, row, LinkKind::kFibre, kRowNetwork.bandwidth_gib_s, fibre);
        }
        break;
      }
    }
  }

  if (params.host_endpoint) {
    const NodeId host =
        topo.add_node(NodeDesc{.name = "host0", .kind = NodeKind::kHost});
    topo.add_duplex(host, nics.front(), LinkKind::kPcie, kRowNetwork.bandwidth_gib_s,
                    kRowNetwork.pcie_stub_latency);
  }
}

}  // namespace

Topology build_fabric(const FabricParams& params) {
  check_params(params);
  Topology topo;
  add_gpus(topo, params);

  if (params.chassis_nics) {
    build_multi_chassis(topo, params);
  } else {
    std::vector<NodeId> devices;
    devices.reserve(static_cast<std::size_t>(params.gpus));
    for (int i = 0; i < params.gpus; ++i) devices.push_back(topo.device(i));
    wire_chassis(topo, params, devices, -1);
  }
  if (params.kind == FabricKind::kOpticalCircuit) {
    topo.set_ocs_reconfigure(kOcsReconfigure);
  }
  return topo;
}

}  // namespace rsd::net

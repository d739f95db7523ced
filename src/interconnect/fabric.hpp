// Pluggable row fabrics: factory functions that stamp out the four
// row-scale interconnect shapes the paper's Discussion asks about, as
// `net::Topology` link graphs.
//
//   * ring              — each GPU port wired to its two neighbours; the
//                         cheapest row, bandwidth-optimal for ring
//                         collectives, diameter n/2;
//   * fullmesh          — a dedicated duplex link per GPU pair; an upper
//                         bound no real row would build past a chassis.
//                         Each mesh is one Topology entry whose link ids
//                         follow from the pair, so a 512-GPU row stores
//                         none of its 261,632 links;
//   * eswitch           — one non-blocking electrical packet switch, every
//                         GPU one port; per-hop forwarding latency;
//   * ocs               — an optical circuit switch: passive (no per-hop
//                         forwarding cost, fibre-class ports) but each
//                         ingress port drives one circuit at a time and
//                         retargeting it pays kOcsReconfigure — the
//                         trade the fabric_compare experiment quantifies.
//
// The GPU ports are the one link a caller sets (FabricParams::link_*,
// NVLink-class by default). Every row-network hop — an electrical
// switch's forwarding cost, a NIC port, a fibre run, the host's PCIe
// stub — reads the default interconnect::CdiNetworkParams, the same
// constants the paper's slack is composed of, so the two cannot drift.
//
// A fabric name parses from the CLI/env (`--fabric` / RSD_FABRIC, see
// harness::ExperimentContext): "ring", "fullmesh", "eswitch", "ocs".
#pragma once

#include <string>
#include <string_view>
#include <vector>

#include "core/units.hpp"
#include "interconnect/link.hpp"
#include "interconnect/topology.hpp"

namespace rsd::net {

enum class FabricKind : std::uint8_t {
  kRing,
  kFullMesh,
  kElectricalSwitch,
  kOpticalCircuit,
};

[[nodiscard]] const char* to_string(FabricKind kind);
/// Accepts the canonical names plus common aliases ("full-mesh",
/// "electrical-switch", "optical", ...). Throws rsd::Error{kInvalidArgument}
/// on anything else.
[[nodiscard]] FabricKind parse_fabric_kind(std::string_view name);
[[nodiscard]] const std::vector<FabricKind>& all_fabric_kinds();

/// Optical circuit retarget delay (fast MEMS/AWGR-class OCS).
inline constexpr SimDuration kOcsReconfigure = duration::microseconds(100.0);

struct FabricParams {
  FabricKind kind = FabricKind::kRing;
  int gpus = 8;
  /// Chassis grouping: device i belongs to chassis i / gpus_per_chassis
  /// (hierarchical collectives reduce inside a chassis first).
  int gpus_per_chassis = 8;
  /// Per-port GPU link characteristics (interconnect::make_nvlink()).
  double link_bandwidth_gib_s = interconnect::make_nvlink().bandwidth_gib_s;
  SimDuration link_latency = interconnect::make_nvlink().latency;

  /// True multi-chassis graph emission: each chassis gains a kNic node
  /// wired to its member GPUs, and the fabric shape recurs at row scale
  /// over fibre links between the NICs (ring of NICs, NIC full mesh, or a
  /// row-level switch). Off by default: flat fabrics keep chassis as a
  /// pure grouping tag and build byte-identical graphs to before.
  bool chassis_nics = false;
  /// Also emit a kHost endpoint behind a PCIe stub into nic0 — the CDI
  /// host-side attach point replay's transport binding routes through.
  bool host_endpoint = false;
};

/// Build the fabric's link graph. Switch forwarding, NIC, fibre and
/// host-stub links take the default interconnect::CdiNetworkParams
/// (per_hop_latency, nic_latency, fibre_km, pcie_stub_latency, all at its
/// bandwidth_gib_s) and an optical switch retargets in kOcsReconfigure.
/// Throws rsd::Error{kInvalidArgument}, naming the FabricParams field, on
/// gpus < 1, gpus_per_chassis < 1, host_endpoint without chassis_nics, a
/// link bandwidth that is not finite and positive, a negative link
/// latency, or a flat full mesh of more than 46,341 GPUs (its link ids
/// would overflow LinkId).
[[nodiscard]] Topology build_fabric(const FabricParams& params);

/// The event-driven collective algorithms layered over a fabric
/// (collective.hpp); parsed alongside the fabric name where experiments
/// take an algorithm column.
enum class Algorithm : std::uint8_t {
  kRing,          ///< 2(n-1) neighbour phases of bytes/n (bandwidth-optimal).
  kTree,          ///< Binomial reduce + broadcast of the full payload.
  kHierarchical,  ///< Ring inside each chassis, ring across leaders, fan-out.
};

[[nodiscard]] const char* to_string(Algorithm algorithm);

}  // namespace rsd::net

// The one link vocabulary: every link a caller configures — a device's
// host link, the GPU<->GPU port a collective or a fabric prices — is a
// `LinkParams` {name, bandwidth, latency}; the NIC, fibre and PCIe-stub
// hops of a row graph take their numbers from `CdiNetworkParams` below.
// Every transfer in the simulator is priced by the one alpha-beta formula
// here (`serialization_time`, plus the latency in `transfer_time`).
//
// The presets are the configurations the paper contrasts (Figure 1) and
// its Discussion's GPU fabrics:
//
//   * traditional: the GPU sits in the host's PCIe domain
//     (PCIe gen4 x16-class link);
//   * row-scale CDI: every CPU<->GPU command additionally crosses two NICs,
//     a number of switch hops, and a length of fibre — the added one-way
//     latency is the paper's "slack" (`CdiNetworkParams::slack`);
//   * GPU<->GPU: an NVLink-class chassis fabric, or PCIe peer-to-peer
//     inside one traditional node.
#pragma once

#include <cstdint>
#include <string>

#include "core/units.hpp"

namespace rsd::interconnect {

/// Speed-of-light propagation delay in fibre, per km (refractive index ~1.5).
inline constexpr double kFibreUsPerKm = 5.0;

/// One-way latency contributed by `km` of fibre.
[[nodiscard]] constexpr SimDuration fibre_delay(double km) {
  return duration::microseconds(kFibreUsPerKm * km);
}

/// The distance (km) whose fibre propagation delay equals `slack`.
/// The paper's headline: 100 us of slack <-> 20 km of fibre.
[[nodiscard]] constexpr double reach_km_for_slack(SimDuration slack) {
  return slack.us() / kFibreUsPerKm;
}

/// A point-to-point link: payload bandwidth and fixed per-transfer latency.
struct LinkParams {
  std::string name = "link";
  double bandwidth_gib_s = 1.0;               ///< Payload bandwidth, GiB/s.
  SimDuration latency = SimDuration::zero();  ///< Fixed per-transfer latency.

  bool operator==(const LinkParams&) const = default;
};

/// Time to serialise `bytes` onto a link of `bandwidth_gib_s`. The byte
/// count is a double so a ring's fractional chunk (bytes / n) prices
/// exactly as the closed forms always have.
[[nodiscard]] inline SimDuration serialization_time(double bytes, double bandwidth_gib_s) {
  return duration::seconds(bytes / (bandwidth_gib_s * static_cast<double>(kGiB)));
}

/// One uncontended transfer of `bytes` over `link`: latency + serialisation.
[[nodiscard]] inline SimDuration transfer_time(const LinkParams& link, double bytes) {
  return link.latency + serialization_time(bytes, link.bandwidth_gib_s);
}

/// PCIe gen4 x16-class host link: ~24 GiB/s effective, ~8 us per-transfer
/// software + DMA setup latency. Matches the traditional node in Figure 1.
[[nodiscard]] inline LinkParams make_pcie_gen4_x16() {
  return LinkParams{"pcie-gen4-x16", 24.0, duration::microseconds(8.0)};
}

/// NVLink-class intra-chassis GPU fabric port.
[[nodiscard]] inline LinkParams make_nvlink() {
  return LinkParams{"nvlink-chassis", 200.0, duration::microseconds(2.0)};
}

/// PCIe peer-to-peer between GPUs within one traditional node.
[[nodiscard]] inline LinkParams make_pcie_p2p() {
  return LinkParams{"pcie-p2p", 20.0, duration::microseconds(6.0)};
}

/// Parameters of a row-scale CDI network path (Figure 1's NIC-network-NIC
/// insert between host and GPU chassis). The defaults are also the row
/// graph's NIC, fibre and host-stub links (net::build_fabric).
struct CdiNetworkParams {
  SimDuration nic_latency = duration::microseconds(0.35);  ///< Per NIC traversal.
  int switch_hops = 2;
  SimDuration per_hop_latency = duration::microseconds(0.12);
  double fibre_km = 0.05;            ///< Row scale: tens of metres.
  double bandwidth_gib_s = 24.0;     ///< Fabric payload bandwidth.
  SimDuration pcie_stub_latency = duration::microseconds(8.0);  ///< Chassis-side PCIe.

  /// Total one-way added latency relative to a direct PCIe link — the
  /// paper's "slack" for this network.
  [[nodiscard]] SimDuration slack() const {
    return nic_latency * std::int64_t{2} + per_hop_latency * std::int64_t{switch_hops} +
           fibre_delay(fibre_km);
  }
};

/// The path across a CDI network: PCIe semantics with the network's slack
/// folded into the per-transfer latency — a host<->chassis link, or the
/// GPU<->GPU path between GPUs scattered over the row.
[[nodiscard]] inline LinkParams make_cdi_link(const CdiNetworkParams& params = {}) {
  return LinkParams{"cdi-network", params.bandwidth_gib_s,
                    params.pcie_stub_latency + params.slack()};
}

}  // namespace rsd::interconnect

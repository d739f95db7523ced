// Host-to-device interconnect models.
//
// A `Link` turns a transfer size into a simulated duration
// (fixed per-transfer latency + size / bandwidth). Factory functions build
// the two configurations the paper contrasts (Figure 1):
//
//   * traditional: the GPU sits in the host's PCIe domain
//     (PCIe gen4 x16-class link),
//   * row-scale CDI: every CPU<->GPU command additionally crosses two NICs,
//     a number of switch hops, and a length of fibre — the added one-way
//     latency is the paper's "slack".
#pragma once

#include <string>

#include "core/error.hpp"
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

struct LinkParams {
  std::string name = "link";
  SimDuration latency = SimDuration::zero();  ///< Fixed per-transfer latency.
  double bandwidth_gib_s = 1.0;               ///< Payload bandwidth, GiB/s.

  bool operator==(const LinkParams&) const = default;
};

/// A point-to-point data link with fixed latency and finite bandwidth.
class Link {
 public:
  explicit Link(LinkParams params) : params_(std::move(params)) {
    RSD_ASSERT(params_.bandwidth_gib_s > 0.0);
  }

  [[nodiscard]] const std::string& name() const { return params_.name; }
  [[nodiscard]] SimDuration latency() const { return params_.latency; }
  [[nodiscard]] double bandwidth_gib_s() const { return params_.bandwidth_gib_s; }

  /// Wall time for one transfer of `bytes` (latency + serialisation).
  [[nodiscard]] SimDuration transfer_time(Bytes bytes) const {
    const double seconds =
        static_cast<double>(bytes) / (params_.bandwidth_gib_s * static_cast<double>(kGiB));
    return params_.latency + duration::seconds(seconds);
  }

  /// Pure command latency (no payload), e.g. a kernel-launch command or a
  /// completion notification crossing this link.
  [[nodiscard]] SimDuration command_latency() const { return params_.latency; }

 private:
  LinkParams params_;
};

/// PCIe gen4 x16-class host link: ~24 GiB/s effective, ~8 us per-transfer
/// software + DMA setup latency. Matches the traditional node in Figure 1.
[[nodiscard]] Link make_pcie_gen4_x16();

/// Parameters of a row-scale CDI network path (Figure 1's NIC-network-NIC
/// insert between host and GPU chassis).
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

/// Build the host<->chassis link for a CDI composition: PCIe semantics with
/// the network's slack folded into the per-transfer latency.
[[nodiscard]] Link make_cdi_link(const CdiNetworkParams& params);

}  // namespace rsd::interconnect

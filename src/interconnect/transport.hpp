// The one seam every byte crosses (`net::Transport`).
//
// Historically each subsystem priced its own data movement: chassis
// collectives asked the Topology for an analytic transfer time, wl replay
// priced inter-lane copies with the same closed form, and the CDI
// host-side hop was a flat PCIe-stub constant. None of them saw FIFO link
// contention or OCS circuit state — so fabric congestion never fed the
// paper's Eq 2-3 penalty bounds.
//
// `Transport` is the abstract seam those paths now share. A transport
// owns a routed view of the machine (its `Topology`), executes transfers
// as simulated occupations (`transfer`), and exposes the uncontended
// closed-form cost (`price`) for callers that need a duration without
// running the event machinery (engine service times, lookahead bounds).
// `net::Network` is the production implementation; tests can substitute
// a stub to pin protocol behaviour without a link graph.
#pragma once

#include "core/units.hpp"
#include "interconnect/topology.hpp"
#include "sim/task.hpp"

namespace rsd::net {

/// Per-transfer observability, filled in by `transfer` when the caller
/// passes a sink: how much circuit-reconfiguration delay the transfer
/// paid before its first byte moved, and whether it found any link busy
/// and had to queue. Callers that don't care pass nullptr.
struct TransferStats {
  SimDuration reconfig = SimDuration::zero();
  bool queued = false;
};

class Transport {
 public:
  virtual ~Transport() = default;

  /// The machine graph this transport routes over.
  [[nodiscard]] virtual const Topology& topology() const = 0;

  /// Move `bytes` from node `src` to node `dst` over the routed path;
  /// resumes when the last byte arrives. `stats`, when non-null, receives
  /// the contention/reconfiguration the transfer observed.
  virtual sim::Task<> transfer(NodeId src, NodeId dst, Bytes bytes,
                               TransferStats* stats) = 0;

  /// Stats-free convenience; the overload every pre-seam call site uses.
  sim::Task<> transfer(NodeId src, NodeId dst, Bytes bytes) {
    return transfer(src, dst, bytes, nullptr);
  }

  /// Uncontended closed-form cost of the same movement: path latency plus
  /// serialisation at the bottleneck link. What engines charge as service
  /// time and what an uncontended `transfer` takes exactly.
  [[nodiscard]] virtual SimDuration price(NodeId src, NodeId dst, Bytes bytes) const = 0;

  /// Device-index convenience (device i = topology().device(i)).
  sim::Task<> transfer_between_devices(int src_device, int dst_device, Bytes bytes);
};

}  // namespace rsd::net

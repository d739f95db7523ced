// Link-graph machine model (`rsd::net`).
//
// The paper's subject is a *row*: hundreds of GPUs whose traffic crosses
// NVLink ports, PCIe stubs, NICs, electrical or optical switches, and
// runs of fibre. A `Topology` models that machine explicitly as a graph —
// devices and switches as vertices, individual links as directed edges,
// each edge carrying its own bandwidth and latency — so collective
// algorithms can be scheduled as timestamped transfers over real paths
// instead of priced by a single closed-form alpha-beta scalar
// (`gpu::ring_allreduce_time` remains as the documented analytic
// cross-check; tests/net_collective_test.cpp pins the two against each
// other on uncontended fabrics).
//
// A full mesh is one entry, not n(n-1) stored links: `add_full_mesh`
// records its members, link parameters and first link id, and derives
// every link from the pair formula. Member pairs (i < j) are numbered in
// lexicographic order; pair k owns ids first + 2k (i -> j) and
// first + 2k + 1 (j -> i) — the ids a loop of `add_duplex` calls over the
// pairs would hand out. So `link()` returns a LinkDesc by value, decoded
// for a mesh id in O(log n), and a 512-GPU flat mesh costs its member
// list instead of 8 MiB of links and 512 out-lists.
//
// Routing is deterministic: min-latency paths (ties broken by hop count,
// then node id). Dijkstra is only the *table builder*: the first route out
// of a source runs one full Dijkstra and fills that source's dense
// next-hop/distance row covering every destination; every later lookup is
// an O(1) flat-array read (`route_table_hits()` counts them), with the
// `Path` object materialised from the row on first use. `route_dijkstra()`
// is the original per-pair search with an early exit and no table: the
// reference the randomized equivalence test (tests/net_fastpath_test.cpp)
// cross-checks the tables against, and the cheaper search for a caller
// that asks each source for one route only (gpu::PartitionedRow's
// multi-chassis ring). Both relax a node's links in insertion order, a
// mesh's links in ascending member order at the point the mesh was added.
// Path latency sums link latencies plus the forwarding latency of
// intermediate nodes (an electrical switch's per-hop cost); path bandwidth
// is the bottleneck link.
#pragma once

#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "core/error.hpp"
#include "core/units.hpp"

namespace rsd::net {

using NodeId = std::int32_t;
using LinkId = std::int32_t;

inline constexpr NodeId kInvalidNode = -1;
inline constexpr LinkId kInvalidLink = -1;

enum class NodeKind : std::uint8_t {
  kGpu,     ///< A simulated accelerator (maps to one gpu::Device / rank).
  kHost,    ///< A CPU host endpoint.
  kNic,     ///< Network interface between a chassis and the row fabric.
  kSwitch,  ///< Packet (electrical) or circuit (optical) switch.
};

enum class LinkKind : std::uint8_t {
  kNvlink,  ///< Chassis-internal GPU fabric port.
  kPcie,    ///< Host/stub PCIe hop.
  kNic,     ///< NIC traversal.
  kSwitch,  ///< Switch port (electrical).
  kFibre,   ///< Optical fibre run (OCS port or long-haul).
};

[[nodiscard]] const char* to_string(NodeKind kind);
[[nodiscard]] const char* to_string(LinkKind kind);

struct NodeDesc {
  std::string name;
  NodeKind kind = NodeKind::kGpu;
  /// Chassis grouping (hierarchical collectives); -1 = ungrouped.
  int chassis = -1;
  /// Forwarding latency charged when a path crosses this node as an
  /// intermediate hop (an electrical switch's per-hop cost; zero for a
  /// passive optical circuit).
  SimDuration forward_latency = SimDuration::zero();
  /// True for an optical circuit switch: traffic entering on a port must
  /// match that port's configured circuit, and retargeting the circuit
  /// costs the topology's `ocs_reconfigure` delay.
  bool optical = false;
};

struct LinkDesc {
  NodeId src = kInvalidNode;
  NodeId dst = kInvalidNode;
  LinkKind kind = LinkKind::kNvlink;
  double bandwidth_gib_s = 1.0;
  SimDuration latency = SimDuration::zero();
};

/// A routed path: the directed links crossed in order, the total fixed
/// latency (links + intermediate forwarding), and the bottleneck
/// bandwidth. `optical_hops` counts traversed optical-switch circuits —
/// non-zero means the transfer is subject to circuit reconfiguration.
struct Path {
  std::vector<LinkId> links;
  SimDuration latency = SimDuration::zero();
  double bottleneck_gib_s = 0.0;
  int optical_hops = 0;

  [[nodiscard]] bool valid() const { return !links.empty(); }
};

/// Analytic single-transfer cost over a path of this latency and bottleneck
/// bandwidth: the fixed latency plus serialisation at the bottleneck link
/// (cut-through; the event-driven Network charges per-link store-and-forward
/// and queueing on top of contention).
[[nodiscard]] SimDuration transfer_time(SimDuration latency, double bottleneck_gib_s,
                                        Bytes bytes);

class Topology {
 public:
  Topology() = default;

  NodeId add_node(NodeDesc desc);
  /// One directed link. Throws rsd::Error{kInvalidArgument} on a self
  /// loop, an unknown endpoint, non-positive bandwidth, negative latency,
  /// or an id past LinkId's range.
  LinkId add_link(LinkDesc desc);
  /// Two directed links, one per direction (the common case).
  void add_duplex(NodeId a, NodeId b, LinkKind kind, double bandwidth_gib_s,
                  SimDuration latency);
  /// A duplex link between every pair of `members`, recorded as one entry
  /// whose ids follow the pair formula (file comment). Fewer than two members
  /// add nothing. Throws rsd::Error{kInvalidArgument} on a repeated or
  /// unknown member, non-positive bandwidth, negative latency, or a mesh
  /// whose ids would overflow LinkId.
  void add_full_mesh(const std::vector<NodeId>& members, LinkKind kind,
                     double bandwidth_gib_s, SimDuration latency);

  [[nodiscard]] std::size_t node_count() const { return nodes_.size(); }
  /// Every directed link, a mesh of n members counting n(n-1).
  [[nodiscard]] std::size_t link_count() const {
    return static_cast<std::size_t>(link_count_);
  }
  [[nodiscard]] const NodeDesc& node(NodeId id) const {
    return nodes_.at(static_cast<std::size_t>(id));
  }
  /// The link with this id (a mesh link decoded from its id). Throws
  /// rsd::Error{kInvalidArgument} on an id outside [0, link_count()).
  [[nodiscard]] LinkDesc link(LinkId id) const;

  /// Devices (kGpu nodes) in insertion order: device index -> node id.
  [[nodiscard]] int device_count() const { return static_cast<int>(devices_.size()); }
  [[nodiscard]] NodeId device(int index) const {
    return devices_.at(static_cast<std::size_t>(index));
  }

  /// Distinct chassis tags across devices (>= 1 when any device is tagged).
  [[nodiscard]] std::vector<int> device_chassis_tags() const;

  /// NICs (kNic nodes) in insertion order: NIC index -> node id. A flat
  /// single-chassis fabric has none; multi-chassis builders emit one per
  /// chassis so cross-chassis routes pay the NIC + fibre hops explicitly.
  [[nodiscard]] int nic_count() const { return static_cast<int>(nics_.size()); }
  [[nodiscard]] NodeId nic(int index) const {
    return nics_.at(static_cast<std::size_t>(index));
  }
  /// The NIC tagged with chassis `tag`. Throws rsd::Error{kInvalidArgument}
  /// when no NIC carries that tag.
  [[nodiscard]] NodeId chassis_nic(int tag) const;

  /// Hosts (kHost nodes) in insertion order: host index -> node id.
  [[nodiscard]] int host_count() const { return static_cast<int>(hosts_.size()); }
  [[nodiscard]] NodeId host(int index) const {
    return hosts_.at(static_cast<std::size_t>(index));
  }

  /// Min-latency route from src to dst, served from the dense per-source
  /// route table (built by one full Dijkstra on the source's first route;
  /// O(1) thereafter). Throws rsd::Error{kInvalidArgument} when no route
  /// exists. Tables are invalidated by add_node/add_link/add_full_mesh.
  [[nodiscard]] const Path& route(NodeId src, NodeId dst) const;

  /// A fresh per-pair Dijkstra that stops at `dst`, no tables, no caching
  /// — byte-for-byte the pre-table algorithm, and the same route as
  /// `route()` (tests cross-check the two on randomized topologies). Use
  /// it for a one-off route; repeated lookups from a source want `route()`.
  [[nodiscard]] Path route_dijkstra(NodeId src, NodeId dst) const;

  /// Route lookups served from an already-materialised table entry.
  [[nodiscard]] std::uint64_t route_table_hits() const { return route_table_hits_; }
  /// Per-source table builds (full Dijkstra runs) so far.
  [[nodiscard]] std::uint64_t route_table_builds() const { return route_table_builds_; }

  /// Analytic single-transfer cost over the routed path (net::transfer_time).
  [[nodiscard]] SimDuration transfer_time(NodeId src, NodeId dst, Bytes bytes) const;

  /// Circuit reconfiguration delay of every optical switch in this
  /// topology (zero when there is none).
  [[nodiscard]] SimDuration ocs_reconfigure() const { return ocs_reconfigure_; }
  void set_ocs_reconfigure(SimDuration d) { ocs_reconfigure_ = d; }

 private:
  /// One full mesh: ids [first, first + n(n-1)) by the pair formula.
  struct Mesh {
    std::vector<NodeId> members;
    LinkKind kind = LinkKind::kNvlink;
    double bandwidth_gib_s = 1.0;
    SimDuration latency = SimDuration::zero();
    LinkId first = kInvalidLink;
    /// Explicit links added before this mesh (links_ index of the next).
    std::size_t explicit_before = 0;

    /// The link `offset` ids past `first`.
    [[nodiscard]] LinkDesc link(std::int64_t offset) const;
  };

  /// One entry of a node's out-list, in insertion order: an explicit link,
  /// or the node's row of a full mesh (its links to every other member in
  /// ascending member order).
  struct Out {
    LinkId link = kInvalidLink;  ///< The explicit link's id; kInvalidLink for a mesh row.
    std::int32_t at = 0;         ///< links_ index of that link, or meshes_ index of the row.
    std::int32_t member = 0;     ///< A mesh row's member position.
  };

  /// Dense routing row of one source: for every node, the last link on the
  /// min-latency path from the source (kInvalidLink = unreached) plus the
  /// path latency; `paths` materialises the user-facing Path per
  /// destination on first request. Rows are built lazily — memory scales
  /// with *touched* sources, not all-pairs.
  struct SourceRow {
    std::vector<LinkId> via;
    std::vector<std::int64_t> dist_ns;
    std::vector<Path> paths;
    std::vector<unsigned char> materialized;
  };

  /// Calls visit(id, dst, latency) for each outbound link of `node` in
  /// insertion order — the relaxation order of both Dijkstras.
  template <typename Visit>
  void for_each_out(NodeId node, Visit&& visit) const;
  /// Claims `count` consecutive link ids, or throws when they would pass
  /// LinkId's range.
  LinkId claim_link_ids(std::int64_t count);
  /// The Path ending at `dst`, walked back through a filled `via` row.
  [[nodiscard]] Path walk_back(const std::vector<LinkId>& via, NodeId src, NodeId dst,
                               std::int64_t latency_ns) const;
  [[nodiscard]] SourceRow& source_row(NodeId src) const;
  void invalidate_routes();

  std::vector<NodeDesc> nodes_;
  std::vector<LinkDesc> links_;  ///< Explicit links in id order.
  std::vector<Mesh> meshes_;     ///< In id order.
  std::vector<std::vector<Out>> out_;
  std::int64_t link_count_ = 0;
  std::vector<NodeId> devices_;
  std::vector<NodeId> nics_;
  std::vector<NodeId> hosts_;
  SimDuration ocs_reconfigure_ = SimDuration::zero();

  mutable std::vector<std::int32_t> source_slot_;  ///< Node -> rows_ index, -1 unbuilt.
  mutable std::vector<SourceRow> rows_;
  mutable std::uint64_t route_table_hits_ = 0;
  mutable std::uint64_t route_table_builds_ = 0;
};

}  // namespace rsd::net

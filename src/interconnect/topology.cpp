#include "interconnect/topology.hpp"

#include <algorithm>
#include <queue>
#include <tuple>

namespace rsd::net {

const char* to_string(NodeKind kind) {
  switch (kind) {
    case NodeKind::kGpu: return "gpu";
    case NodeKind::kHost: return "host";
    case NodeKind::kNic: return "nic";
    case NodeKind::kSwitch: return "switch";
  }
  return "?";
}

const char* to_string(LinkKind kind) {
  switch (kind) {
    case LinkKind::kNvlink: return "nvlink";
    case LinkKind::kPcie: return "pcie";
    case LinkKind::kNic: return "nic";
    case LinkKind::kSwitch: return "switch";
    case LinkKind::kFibre: return "fibre";
  }
  return "?";
}

void Topology::invalidate_routes() {
  rows_.clear();
  source_slot_.assign(nodes_.size(), -1);
}

NodeId Topology::add_node(NodeDesc desc) {
  const auto id = static_cast<NodeId>(nodes_.size());
  if (desc.kind == NodeKind::kGpu) devices_.push_back(id);
  if (desc.kind == NodeKind::kNic) nics_.push_back(id);
  if (desc.kind == NodeKind::kHost) hosts_.push_back(id);
  nodes_.push_back(std::move(desc));
  out_.emplace_back();
  invalidate_routes();
  return id;
}

LinkId Topology::add_link(LinkDesc desc) {
  const auto n = static_cast<NodeId>(nodes_.size());
  if (desc.src < 0 || desc.src >= n || desc.dst < 0 || desc.dst >= n) {
    throw Error{ErrorCode::kInvalidArgument, "net::Topology: link endpoint out of range"};
  }
  if (desc.src == desc.dst) {
    throw Error{ErrorCode::kInvalidArgument, "net::Topology: self-loop link"};
  }
  if (!(desc.bandwidth_gib_s > 0.0)) {
    throw Error{ErrorCode::kInvalidArgument, "net::Topology: non-positive link bandwidth"};
  }
  if (desc.latency.ns() < 0) {
    throw Error{ErrorCode::kInvalidArgument, "net::Topology: negative link latency"};
  }
  const auto id = static_cast<LinkId>(links_.size());
  out_[static_cast<std::size_t>(desc.src)].push_back(id);
  links_.push_back(desc);
  invalidate_routes();
  return id;
}

void Topology::add_duplex(NodeId a, NodeId b, LinkKind kind, double bandwidth_gib_s,
                          SimDuration latency) {
  add_link(LinkDesc{a, b, kind, bandwidth_gib_s, latency});
  add_link(LinkDesc{b, a, kind, bandwidth_gib_s, latency});
}

NodeId Topology::chassis_nic(int tag) const {
  for (const NodeId id : nics_) {
    if (node(id).chassis == tag) return id;
  }
  throw Error{ErrorCode::kInvalidArgument,
              "net::Topology::chassis_nic: no NIC tagged with chassis " + std::to_string(tag)};
}

std::vector<int> Topology::device_chassis_tags() const {
  std::vector<int> tags;
  for (const NodeId id : devices_) {
    const int tag = node(id).chassis;
    if (std::find(tags.begin(), tags.end(), tag) == tags.end()) tags.push_back(tag);
  }
  return tags;
}

namespace {

/// Dijkstra frontier entry ordered by (latency, hops, node id) — a total
/// order over simulation state only, so routes never depend on container
/// iteration quirks or thread timing.
struct Frontier {
  std::int64_t latency_ns;
  int hops;
  NodeId node;

  [[nodiscard]] bool operator>(const Frontier& o) const {
    return std::tie(latency_ns, hops, node) > std::tie(o.latency_ns, o.hops, o.node);
  }
};

}  // namespace

Topology::SourceRow& Topology::source_row(NodeId src) const {
  if (source_slot_.size() != nodes_.size()) source_slot_.resize(nodes_.size(), -1);
  std::int32_t& slot = source_slot_[static_cast<std::size_t>(src)];
  if (slot >= 0) return rows_[static_cast<std::size_t>(slot)];

  // One full Dijkstra from `src` settles every reachable node, filling the
  // dense via/distance row in a single sweep. Identical frontier ordering
  // and relaxation rule as route_dijkstra(), minus the early exit — with
  // positive link latencies a settled node is never relabeled, so the two
  // agree on every destination (pinned by the randomized equivalence
  // test).
  constexpr std::int64_t kInf = std::numeric_limits<std::int64_t>::max();
  SourceRow row;
  row.via.assign(nodes_.size(), kInvalidLink);
  row.dist_ns.assign(nodes_.size(), kInf);
  row.paths.resize(nodes_.size());
  row.materialized.assign(nodes_.size(), 0);
  std::vector<int> hops(nodes_.size(), 0);
  std::priority_queue<Frontier, std::vector<Frontier>, std::greater<>> frontier;
  row.dist_ns[static_cast<std::size_t>(src)] = 0;
  frontier.push(Frontier{0, 0, src});
  while (!frontier.empty()) {
    const Frontier f = frontier.top();
    frontier.pop();
    if (f.latency_ns > row.dist_ns[static_cast<std::size_t>(f.node)]) continue;
    const std::int64_t forward = f.node == src ? 0 : node(f.node).forward_latency.ns();
    for (const LinkId lid : out_[static_cast<std::size_t>(f.node)]) {
      const LinkDesc& l = links_[static_cast<std::size_t>(lid)];
      const std::int64_t cand = f.latency_ns + forward + l.latency.ns();
      auto& best = row.dist_ns[static_cast<std::size_t>(l.dst)];
      auto& best_hops = hops[static_cast<std::size_t>(l.dst)];
      const int cand_hops = f.hops + 1;
      if (cand < best || (cand == best && cand_hops < best_hops)) {
        best = cand;
        best_hops = cand_hops;
        row.via[static_cast<std::size_t>(l.dst)] = lid;
        frontier.push(Frontier{cand, cand_hops, l.dst});
      }
    }
  }
  ++route_table_builds_;
  slot = static_cast<std::int32_t>(rows_.size());
  rows_.push_back(std::move(row));
  return rows_.back();
}

const Path& Topology::route(NodeId src, NodeId dst) const {
  const auto n = static_cast<NodeId>(nodes_.size());
  if (src < 0 || src >= n || dst < 0 || dst >= n || src == dst) {
    throw Error{ErrorCode::kInvalidArgument, "net::Topology::route: bad endpoints"};
  }
  SourceRow& row = source_row(src);
  const auto d = static_cast<std::size_t>(dst);
  if (row.materialized[d]) {
    ++route_table_hits_;
    return row.paths[d];
  }
  if (row.dist_ns[d] == std::numeric_limits<std::int64_t>::max()) {
    throw Error{ErrorCode::kInvalidArgument,
                "net::Topology::route: no path " + node(src).name + " -> " + node(dst).name};
  }
  // First request of this (src, dst): materialise the Path by walking the
  // via row back from the destination. Rows are pre-sized, so the
  // reference stays valid for the topology's lifetime.
  Path path;
  path.latency = duration::nanoseconds(row.dist_ns[d]);
  path.bottleneck_gib_s = std::numeric_limits<double>::infinity();
  for (NodeId at = dst; at != src;) {
    const LinkId lid = row.via[static_cast<std::size_t>(at)];
    const LinkDesc& l = links_[static_cast<std::size_t>(lid)];
    path.links.push_back(lid);
    path.bottleneck_gib_s = std::min(path.bottleneck_gib_s, l.bandwidth_gib_s);
    if (l.dst != dst && node(l.dst).optical) ++path.optical_hops;
    at = l.src;
  }
  std::reverse(path.links.begin(), path.links.end());
  row.paths[d] = std::move(path);
  row.materialized[d] = 1;
  return row.paths[d];
}

Path Topology::route_dijkstra(NodeId src, NodeId dst) const {
  const auto n = static_cast<NodeId>(nodes_.size());
  if (src < 0 || src >= n || dst < 0 || dst >= n || src == dst) {
    throw Error{ErrorCode::kInvalidArgument, "net::Topology::route: bad endpoints"};
  }
  constexpr std::int64_t kInf = std::numeric_limits<std::int64_t>::max();
  std::vector<std::int64_t> dist(nodes_.size(), kInf);
  std::vector<int> hops(nodes_.size(), 0);
  std::vector<LinkId> via(nodes_.size(), kInvalidLink);
  std::priority_queue<Frontier, std::vector<Frontier>, std::greater<>> frontier;
  dist[static_cast<std::size_t>(src)] = 0;
  frontier.push(Frontier{0, 0, src});

  while (!frontier.empty()) {
    const Frontier f = frontier.top();
    frontier.pop();
    if (f.latency_ns > dist[static_cast<std::size_t>(f.node)]) continue;
    if (f.node == dst) break;
    // Leaving an intermediate node pays its forwarding latency (the
    // source endpoint forwards nothing of its own).
    const std::int64_t forward =
        f.node == src ? 0 : node(f.node).forward_latency.ns();
    for (const LinkId lid : out_[static_cast<std::size_t>(f.node)]) {
      const LinkDesc& l = links_[static_cast<std::size_t>(lid)];
      const std::int64_t cand = f.latency_ns + forward + l.latency.ns();
      auto& best = dist[static_cast<std::size_t>(l.dst)];
      auto& best_hops = hops[static_cast<std::size_t>(l.dst)];
      const int cand_hops = f.hops + 1;
      if (cand < best || (cand == best && cand_hops < best_hops)) {
        best = cand;
        best_hops = cand_hops;
        via[static_cast<std::size_t>(l.dst)] = lid;
        frontier.push(Frontier{cand, cand_hops, l.dst});
      }
    }
  }

  if (dist[static_cast<std::size_t>(dst)] == kInf) {
    throw Error{ErrorCode::kInvalidArgument,
                "net::Topology::route: no path " + node(src).name + " -> " + node(dst).name};
  }

  Path path;
  path.latency = duration::nanoseconds(dist[static_cast<std::size_t>(dst)]);
  path.bottleneck_gib_s = std::numeric_limits<double>::infinity();
  for (NodeId at = dst; at != src;) {
    const LinkId lid = via[static_cast<std::size_t>(at)];
    const LinkDesc& l = links_[static_cast<std::size_t>(lid)];
    path.links.push_back(lid);
    path.bottleneck_gib_s = std::min(path.bottleneck_gib_s, l.bandwidth_gib_s);
    if (l.dst != dst && node(l.dst).optical) ++path.optical_hops;
    at = l.src;
  }
  std::reverse(path.links.begin(), path.links.end());
  return path;
}

SimDuration transfer_time(SimDuration latency, double bottleneck_gib_s, Bytes bytes) {
  return latency + duration::seconds(static_cast<double>(bytes) /
                                     (bottleneck_gib_s * static_cast<double>(kGiB)));
}

SimDuration Topology::transfer_time(NodeId src, NodeId dst, Bytes bytes) const {
  const Path& p = route(src, dst);
  return net::transfer_time(p.latency, p.bottleneck_gib_s, bytes);
}

}  // namespace rsd::net

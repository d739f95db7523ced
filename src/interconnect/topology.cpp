#include "interconnect/topology.hpp"

#include <algorithm>
#include <queue>
#include <tuple>
#include <utility>

#include "interconnect/link.hpp"

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

namespace {

/// The pairs (i < j) of an n-member mesh are numbered lexicographically;
/// row i's first pair, (i, i + 1), is number row_start(n, i): the count
/// of pairs in rows 0..i-1.
std::int64_t row_start(std::int64_t n, std::int64_t i) { return i * (2 * n - i - 1) / 2; }

void check_link_params(double bandwidth_gib_s, SimDuration latency) {
  if (!(bandwidth_gib_s > 0.0)) {
    throw Error{ErrorCode::kInvalidArgument, "net::Topology: non-positive link bandwidth"};
  }
  if (latency.ns() < 0) {
    throw Error{ErrorCode::kInvalidArgument, "net::Topology: negative link latency"};
  }
}

}  // namespace

LinkDesc Topology::Mesh::link(std::int64_t offset) const {
  const auto n = static_cast<std::int64_t>(members.size());
  const std::int64_t pair = offset / 2;
  // The row i holding `pair`: row_start(n, i) <= pair < row_start(n, i + 1),
  // by bisection over row_start(n, lo) <= pair < row_start(n, hi).
  std::int64_t lo = 0;
  std::int64_t hi = n - 1;
  while (hi - lo > 1) {
    const std::int64_t mid = lo + (hi - lo) / 2;
    (row_start(n, mid) <= pair ? lo : hi) = mid;
  }
  const std::int64_t j = lo + 1 + (pair - row_start(n, lo));
  NodeId src = members[static_cast<std::size_t>(lo)];
  NodeId dst = members[static_cast<std::size_t>(j)];
  if (offset % 2 != 0) std::swap(src, dst);
  return LinkDesc{src, dst, kind, bandwidth_gib_s, latency};
}

void Topology::invalidate_routes() {
  // Unbuilt slots are all -1 already, and source_row() sizes the slot
  // vector to the node count on demand.
  if (rows_.empty()) return;
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

LinkId Topology::claim_link_ids(std::int64_t count) {
  if (link_count_ + count - 1 > std::numeric_limits<LinkId>::max()) {
    throw Error{ErrorCode::kInvalidArgument,
                "net::Topology: " + std::to_string(link_count_ + count) +
                    " links overflow the int32 LinkId"};
  }
  const auto first = static_cast<LinkId>(link_count_);
  link_count_ += count;
  return first;
}

LinkId Topology::add_link(LinkDesc desc) {
  const auto n = static_cast<NodeId>(nodes_.size());
  if (desc.src < 0 || desc.src >= n || desc.dst < 0 || desc.dst >= n) {
    throw Error{ErrorCode::kInvalidArgument, "net::Topology: link endpoint out of range"};
  }
  if (desc.src == desc.dst) {
    throw Error{ErrorCode::kInvalidArgument, "net::Topology: self-loop link"};
  }
  check_link_params(desc.bandwidth_gib_s, desc.latency);
  const LinkId id = claim_link_ids(1);
  out_[static_cast<std::size_t>(desc.src)].push_back(
      Out{.link = id, .at = static_cast<std::int32_t>(links_.size())});
  links_.push_back(desc);
  invalidate_routes();
  return id;
}

void Topology::add_duplex(NodeId a, NodeId b, LinkKind kind, double bandwidth_gib_s,
                          SimDuration latency) {
  add_link(LinkDesc{a, b, kind, bandwidth_gib_s, latency});
  add_link(LinkDesc{b, a, kind, bandwidth_gib_s, latency});
}

void Topology::add_full_mesh(const std::vector<NodeId>& members, LinkKind kind,
                             double bandwidth_gib_s, SimDuration latency) {
  std::vector<unsigned char> seen(nodes_.size(), 0);
  for (const NodeId m : members) {
    if (m < 0 || static_cast<std::size_t>(m) >= nodes_.size()) {
      throw Error{ErrorCode::kInvalidArgument, "net::Topology: mesh member out of range"};
    }
    if (seen[static_cast<std::size_t>(m)] != 0) {
      throw Error{ErrorCode::kInvalidArgument, "net::Topology: repeated mesh member"};
    }
    seen[static_cast<std::size_t>(m)] = 1;
  }
  check_link_params(bandwidth_gib_s, latency);
  const auto n = static_cast<std::int64_t>(members.size());
  if (n < 2) return;
  const LinkId first = claim_link_ids(n * (n - 1));
  const auto mesh = static_cast<std::int32_t>(meshes_.size());
  meshes_.push_back(Mesh{.members = members,
                         .kind = kind,
                         .bandwidth_gib_s = bandwidth_gib_s,
                         .latency = latency,
                         .first = first,
                         .explicit_before = links_.size()});
  for (std::int32_t i = 0; i < static_cast<std::int32_t>(n); ++i) {
    out_[static_cast<std::size_t>(members[static_cast<std::size_t>(i)])].push_back(
        Out{.at = mesh, .member = i});
  }
  invalidate_routes();
}

LinkDesc Topology::link(LinkId id) const {
  if (id < 0 || id >= link_count_) {
    throw Error{ErrorCode::kInvalidArgument,
                "net::Topology::link: no link " + std::to_string(id)};
  }
  // The last mesh whose block starts at or before `id`: either `id` lies
  // in it, or it is one of the explicit links added after it.
  const auto after = std::upper_bound(meshes_.begin(), meshes_.end(), id,
                                      [](LinkId v, const Mesh& m) { return v < m.first; });
  if (after == meshes_.begin()) return links_[static_cast<std::size_t>(id)];
  const Mesh& mesh = *(after - 1);
  const std::int64_t offset = std::int64_t{id} - mesh.first;
  const auto n = static_cast<std::int64_t>(mesh.members.size());
  if (offset < n * (n - 1)) return mesh.link(offset);
  return links_[mesh.explicit_before + static_cast<std::size_t>(offset - n * (n - 1))];
}

template <typename Visit>
void Topology::for_each_out(NodeId node, Visit&& visit) const {
  for (const Out& o : out_[static_cast<std::size_t>(node)]) {
    if (o.link != kInvalidLink) {
      const LinkDesc& l = links_[static_cast<std::size_t>(o.at)];
      visit(o.link, l.dst, l.latency);
      continue;
    }
    const Mesh& mesh = meshes_[static_cast<std::size_t>(o.at)];
    const auto n = static_cast<std::int64_t>(mesh.members.size());
    const std::int64_t from = o.member;
    // Ids step from link to link (the hot loop of a mesh's Dijkstra).
    // Down to a lower member `to`: the reverse link of pair (to, from),
    // from pair from - 1 on, the pair number growing by n - to - 2.
    std::int64_t id = mesh.first + 2 * (from - 1) + 1;
    for (std::int64_t to = 0; to < from; ++to) {
      visit(static_cast<LinkId>(id), mesh.members[static_cast<std::size_t>(to)], mesh.latency);
      id += 2 * (n - to - 2);
    }
    // Up to a higher member: pairs (from, to) are numbered consecutively.
    id = mesh.first + 2 * row_start(n, from);
    for (std::int64_t to = from + 1; to < n; ++to) {
      visit(static_cast<LinkId>(id), mesh.members[static_cast<std::size_t>(to)], mesh.latency);
      id += 2;
    }
  }
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

Path Topology::walk_back(const std::vector<LinkId>& via, NodeId src, NodeId dst,
                         std::int64_t latency_ns) const {
  Path path;
  path.latency = duration::nanoseconds(latency_ns);
  path.bottleneck_gib_s = std::numeric_limits<double>::infinity();
  for (NodeId at = dst; at != src;) {
    const LinkId lid = via[static_cast<std::size_t>(at)];
    const LinkDesc l = link(lid);
    path.links.push_back(lid);
    path.bottleneck_gib_s = std::min(path.bottleneck_gib_s, l.bandwidth_gib_s);
    if (l.dst != dst && node(l.dst).optical) ++path.optical_hops;
    at = l.src;
  }
  std::reverse(path.links.begin(), path.links.end());
  return path;
}

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
    for_each_out(f.node, [&](LinkId lid, NodeId to, SimDuration latency) {
      const std::int64_t cand = f.latency_ns + forward + latency.ns();
      auto& best = row.dist_ns[static_cast<std::size_t>(to)];
      auto& best_hops = hops[static_cast<std::size_t>(to)];
      const int cand_hops = f.hops + 1;
      if (cand < best || (cand == best && cand_hops < best_hops)) {
        best = cand;
        best_hops = cand_hops;
        row.via[static_cast<std::size_t>(to)] = lid;
        frontier.push(Frontier{cand, cand_hops, to});
      }
    });
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
  // First request of this (src, dst): materialise the Path from the via
  // row. Rows are pre-sized, so the reference stays valid for the
  // topology's lifetime.
  row.paths[d] = walk_back(row.via, src, dst, row.dist_ns[d]);
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
    for_each_out(f.node, [&](LinkId lid, NodeId to, SimDuration latency) {
      const std::int64_t cand = f.latency_ns + forward + latency.ns();
      auto& best = dist[static_cast<std::size_t>(to)];
      auto& best_hops = hops[static_cast<std::size_t>(to)];
      const int cand_hops = f.hops + 1;
      if (cand < best || (cand == best && cand_hops < best_hops)) {
        best = cand;
        best_hops = cand_hops;
        via[static_cast<std::size_t>(to)] = lid;
        frontier.push(Frontier{cand, cand_hops, to});
      }
    });
  }

  if (dist[static_cast<std::size_t>(dst)] == kInf) {
    throw Error{ErrorCode::kInvalidArgument,
                "net::Topology::route: no path " + node(src).name + " -> " + node(dst).name};
  }

  return walk_back(via, src, dst, dist[static_cast<std::size_t>(dst)]);
}

SimDuration Topology::transfer_time(NodeId src, NodeId dst, Bytes bytes) const {
  const Path& p = route(src, dst);
  return p.latency + interconnect::serialization_time(static_cast<double>(bytes),
                                                      p.bottleneck_gib_s);
}

}  // namespace rsd::net

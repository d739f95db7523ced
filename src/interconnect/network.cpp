#include "interconnect/network.hpp"

#include <algorithm>

#include "obs/metrics.hpp"
#include "obs/tracer.hpp"

namespace rsd::net {

Network::Network(sim::Scheduler& sched, const Topology& topology)
    : sched_(sched), topo_(topology), links_(topo_.link_count()) {
  flushed_route_hits_ = topo_.route_table_hits();
  quiesce_handle_ = obs::QuiesceRegistry::global().add([this] { flush(); });
}

Network::~Network() {
  obs::QuiesceRegistry::global().remove(quiesce_handle_);
  flush();
}

void Network::set_usage_bucket(SimDuration width) {
  if (width.ns() > 0) bucket_width_ns_ = width.ns();
}

Network::LinkState::Bucket& Network::bucket_at(LinkState& state, SimTime at) {
  const std::int64_t start = (at.ns() / bucket_width_ns_) * bucket_width_ns_;
  auto& buckets = state.buckets;
  // Nearly always the newest bucket or a fresh append; a queued transfer's
  // start bucket can lie ahead of a later arrival's, which then inserts.
  if (buckets.empty() || buckets.back().first < start) {
    buckets.emplace_back(start, LinkState::Bucket{});
    return buckets.back().second;
  }
  auto it = std::lower_bound(buckets.begin(), buckets.end(), start,
                             [](const auto& b, std::int64_t s) { return b.first < s; });
  if (it->first != start) it = buckets.emplace(it, start, LinkState::Bucket{});
  return it->second;
}

std::vector<LinkUsageSample> Network::link_usage() const {
  std::vector<LinkUsageSample> out;
  for (std::size_t lid = 0; lid < links_.size(); ++lid) {
    for (const auto& [start, bucket] : links_[lid].buckets) {
      LinkUsageSample sample;
      sample.link = static_cast<LinkId>(lid);
      sample.bucket_start_ns = start;
      sample.busy_ns = bucket.busy_ns;
      sample.transfers = bucket.transfers;
      sample.max_queue_depth = bucket.max_queue_depth;
      out.push_back(sample);
    }
  }
  return out;  // buckets are kept in start order, links ascend: already sorted.
}

void Network::flush() {
  auto& reg = obs::Registry::global();
  const auto delta = [](std::uint64_t now, std::uint64_t& flushed) {
    const std::uint64_t d = now - flushed;
    flushed = now;
    return static_cast<std::int64_t>(d);
  };
  reg.counter("net.transfers").add(delta(transfers_, flushed_transfers_));
  reg.counter("net.contended_transfers").add(delta(contended_, flushed_contended_));
  reg.counter("net.express").add(delta(express_, flushed_express_));
  reg.counter("net.route_hits").add(delta(topo_.route_table_hits(), flushed_route_hits_));
  reg.counter("net.reconfigs").add(delta(reconfigs_, flushed_reconfigs_));
  reg.counter("net.nic_transfers").add(delta(nic_transfers_, flushed_nic_transfers_));
  reg.counter("net.link_busy_ns").add(busy_total_.ns() - flushed_busy_ns_);
  flushed_busy_ns_ = busy_total_.ns();
  reg.counter("net.fibre_busy_ns").add(fibre_busy_.ns() - flushed_fibre_busy_ns_);
  flushed_fibre_busy_ns_ = fibre_busy_.ns();

  if (!obs::Tracer::enabled()) return;
  auto& tracer = obs::Tracer::instance();
  if (sim_id_ < 0) sim_id_ = tracer.acquire_sim_id();
  for (std::size_t lid = 0; lid < links_.size(); ++lid) {
    const std::int32_t track =
        obs::kTrackNetBase + static_cast<std::int32_t>(lid);
    for (auto& [start, bucket] : links_[lid].buckets) {
      if (bucket.exported) continue;
      const double util = static_cast<double>(bucket.busy_ns) /
                          static_cast<double>(bucket_width_ns_);
      tracer.counter_sim(sim_id_, track, start, "net", "link.util", util);
      tracer.counter_sim(sim_id_, track, start, "net", "link.queue",
                         static_cast<double>(bucket.max_queue_depth));
      bucket.exported = true;
    }
  }
}

sim::Task<> Network::transfer(NodeId src, NodeId dst, Bytes bytes, TransferStats* stats) {
  const Path& path = topo_.route(src, dst);
  ++transfers_;
  bool queued = false;
  bool left_chassis = false;
  for (std::size_t hop = 0; hop < path.links.size(); ++hop) {
    const LinkId lid = path.links[hop];
    const LinkDesc desc = topo_.link(lid);
    LinkState& state = links_[static_cast<std::size_t>(lid)];

    // A transfer that crosses a NIC port or a fibre run left its chassis
    // (or touched the chassis edge): count it once so experiments can
    // split row-scale traffic from chassis-local traffic. Flat fabrics
    // have neither kind.
    if (!left_chassis && (desc.kind == LinkKind::kNic || desc.kind == LinkKind::kFibre)) {
      left_chassis = true;
      ++nic_transfers_;
    }

    // Entering an optical circuit: the ingress port must point at the
    // egress this path takes next; retargeting pays the reconfiguration
    // delay before any byte moves.
    if (topo_.node(desc.dst).optical && hop + 1 < path.links.size()) {
      const LinkId egress = path.links[hop + 1];
      if (state.circuit != egress) {
        if (state.circuit != kInvalidLink || topo_.ocs_reconfigure().ns() > 0) {
          // The very first configuration of an untouched port still pays:
          // the circuit has to be set up either way.
          ++reconfigs_;
          if (stats != nullptr) stats->reconfig = stats->reconfig + topo_.ocs_reconfigure();
          co_await sim::delay(topo_.ocs_reconfigure());
        }
        state.circuit = egress;
      }
    }

    // Book the wire: a booking that ends at or before `now` is over; behind
    // the rest, serialisation starts when the last one ends.
    const SimTime now = sched_.now();
    while (!state.booked.empty() && state.booked[0] <= now) state.booked.pop();
    const SimTime start = state.booked.empty() ? now : state.booked.back();
    if (start > now) {
      queued = true;
    } else if (path.links.size() == 1) {
      ++express_;
    }
    const SimDuration serialize = duration::seconds(
        static_cast<double>(bytes) / (desc.bandwidth_gib_s * static_cast<double>(kGiB)));
    state.booked.push(start + serialize);
    {
      LinkState::Bucket& arrival = bucket_at(state, now);
      arrival.max_queue_depth =
          std::max(arrival.max_queue_depth, static_cast<int>(state.booked.size()));
    }
    {
      // Busy time books to the bucket where serialisation begins; a payload
      // longer than the bucket width shows up as utilisation > 1 there
      // rather than being smeared forward.
      LinkState::Bucket& begun = bucket_at(state, start);
      begun.busy_ns += serialize.ns();
      ++begun.transfers;
    }
    busy_total_ = busy_total_ + serialize;
    if (desc.kind == LinkKind::kFibre) fibre_busy_ = fibre_busy_ + serialize;

    // Propagation (plus the crossed node's forwarding cost) overlaps with
    // the next payload on this link — the wire is free once serialised.
    SimDuration off_link = desc.latency;
    if (hop + 1 < path.links.size()) {
      off_link = off_link + topo_.node(desc.dst).forward_latency;
    }
    co_await sim::delay((start - now) + serialize + off_link);
  }
  if (queued) {
    ++contended_;
    if (stats != nullptr) stats->queued = true;
  }
}

}  // namespace rsd::net

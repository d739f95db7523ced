#include "gpusim/row.hpp"

#include <algorithm>
#include <coroutine>
#include <utility>

#include "core/error.hpp"
#include "core/inline_fifo.hpp"
#include "interconnect/link.hpp"
#include "sim/partition.hpp"

namespace rsd::gpu {

namespace {

net::Topology build_row_topology(const RowParams& params) {
  if (params.topology != nullptr) return {};  // shared fabric: nothing to own
  return net::build_fabric(net::FabricParams{.kind = params.fabric_kind,
                                             .gpus = params.gpus,
                                             .gpus_per_chassis = params.gpus_per_chassis,
                                             .chassis_nics = params.chassis_nics});
}

/// Rank -> partition: one partition per chassis, numbered in the order the
/// devices first name their chassis tags (device_chassis_tags). Flat
/// fabrics record the `gpus_per_chassis` grouping too, so every row is
/// partitioned the same way whether its fabric is owned or shared, and
/// the map never depends on the engine's thread count.
std::vector<sim::PartitionId> chassis_partitions(const net::Topology& topo, int gpus) {
  RSD_ASSERT(gpus >= 1);
  const std::vector<int> tags = topo.device_chassis_tags();
  std::vector<sim::PartitionId> part(static_cast<std::size_t>(gpus));
  for (int rank = 0; rank < gpus; ++rank) {
    const int tag = topo.node(topo.device(rank)).chassis;
    part[static_cast<std::size_t>(rank)] = static_cast<sim::PartitionId>(
        std::find(tags.begin(), tags.end(), tag) - tags.begin());
  }
  return part;
}

}  // namespace

/// Partition-local state of one rank. The Device belongs to the scheduler
/// of the rank's chassis partition, which it shares with the other ranks
/// of that chassis; nothing here is ever touched from another partition
/// (the arrival message below runs *inside* the destination partition by
/// construction).
struct PartitionedRow::Rank {
  Rank(sim::Scheduler& sched, const DeviceParams& params)
      : dev(sched, params, interconnect::make_pcie_gen4_x16()) {}

  /// The end of a ring phase whose outbound DMA drains at `d2h_end`:
  /// resumes the rank once that DMA and the phase's inbound chunk have
  /// both drained, at the cost of one event — the rank's own sleep when
  /// the chunk landed first, else the arrival's direct wake (land()).
  struct PhaseDrained {
    Rank& rank;
    SimTime d2h_end;
    bool landed = false;
    SimTime wake = SimTime::zero();

    [[nodiscard]] bool await_ready() {
      if (rank.landings.empty()) return false;
      landed = true;
      wake = std::max(d2h_end, rank.landings.pop());
      return wake <= rank.dev.scheduler().now();
    }
    void await_suspend(std::coroutine_handle<> h) {
      if (landed) {
        rank.dev.scheduler().schedule_at(h, wake);
        return;
      }
      rank.waiting = h;
      rank.waiting_d2h_end = d2h_end;
    }
    void await_resume() const noexcept {}
  };

  [[nodiscard]] PhaseDrained phase_drained(SimTime d2h_end) { return {*this, d2h_end}; }

  /// An inbound chunk is in and its H2D copy drains at `drain`. A rank
  /// already waiting for it resumes once that copy and its own D2H have
  /// both drained; otherwise the drain time waits in `landings`.
  void land(SimTime drain) {
    if (!waiting) {
      landings.push(drain);
      return;
    }
    dev.scheduler().schedule_at(std::exchange(waiting, nullptr),
                                std::max(waiting_d2h_end, drain));
  }

  Device dev;
  /// Drain times of chunks that landed before the rank waited for them,
  /// oldest first (a neighbour runs at most 3 phases ahead on the 512-GPU
  /// multi-chassis rows).
  InlineFifo<SimTime, 4> landings;
  std::coroutine_handle<> waiting;  ///< The rank, parked until its chunk lands.
  SimTime waiting_d2h_end = SimTime::zero();  ///< The parked rank's outbound DMA end.
  SimTime finished = SimTime::zero();
  std::vector<std::int64_t> step_ends;
};

/// Ring payload: an allreduce chunk landing at `rank`. Runs in the rank's
/// partition at arrival time — as a cross-partition message when the ring
/// edge leaves the chassis, as a plain local event when it stays inside.
/// The chunk occupies the H2D engine for the transfer duration, booked in
/// closed form at landing: on an idle engine, or chained behind the copies
/// still booked there. The drain time goes to the rank.
struct RowArrival {
  PartitionedRow* row;
  int rank;
  Bytes chunk;
  SimDuration transfer;
  NameRef name;

  void operator()() const {
    PartitionedRow::Rank& r = *row->ranks_[static_cast<std::size_t>(rank)];
    OpRecord rec;
    rec.kind = OpKind::kMemcpyH2D;
    rec.name = name;
    rec.bytes = chunk;
    r.dev.h2d_engine().book(rec, transfer);
    if (auto* sink = r.dev.record_sink(); sink != nullptr) sink->on_op(rec);
    r.land(rec.end);
  }
};
static_assert(sizeof(RowArrival) <= sim::CrossCall::kInlineBytes);

/// Route every ring edge once. Flat fabrics are rank-symmetric, so rank
/// 0 -> 1 prices every edge (routing each edge of a flat 512-GPU full mesh
/// would run 512 full Dijkstras over its 261,632 links). Multi-chassis
/// graphs are not: an edge that crosses a chassis boundary routes over
/// NIC + fibre while an intra-chassis edge stays on the NVLink-class
/// links, so every edge is routed on its own, by the early-exit
/// point-to-point search — each source is asked for one route only, so a
/// dense route table per source would cost a full Dijkstra and a row of
/// Paths for nothing. A zero-latency edge cannot bound message arrival at
/// all, so it is a usage error, not an invariant violation.
std::vector<PartitionedRow::RingEdge> PartitionedRow::route_ring(const net::Topology& topo,
                                                                 const RowParams& params) {
  const int n = params.gpus;
  const bool flat = topo.nic_count() == 0;
  std::vector<RingEdge> ring;
  if (n < 2) return ring;
  ring.reserve(static_cast<std::size_t>(n));
  for (int rank = 0; rank < n; ++rank) {
    if (flat && rank > 0) {
      ring.push_back(ring.front());
      continue;
    }
    const net::NodeId src = topo.device(rank);
    const net::NodeId dst = topo.device((rank + 1) % n);
    if (flat) {
      // One lookup per field: fabric_compare's tracked `route_hits` column
      // counts the row's route() calls.
      ring.push_back(RingEdge{.latency = topo.route(src, dst).latency,
                              .bottleneck_gib_s = topo.route(src, dst).bottleneck_gib_s,
                              .optical = topo.route(src, dst).optical_hops > 0});
    } else {
      const net::Path path = topo.route_dijkstra(src, dst);
      ring.push_back(RingEdge{.latency = path.latency,
                              .bottleneck_gib_s = path.bottleneck_gib_s,
                              .optical = path.optical_hops > 0});
    }
    if (ring.back().latency.ns() <= 0) {
      throw Error{ErrorCode::kInvalidArgument,
                  "PartitionedRow: fabric '" + std::string{net::to_string(params.fabric_kind)} +
                      "' has a zero-latency route on ring edge " + std::to_string(rank) +
                      " -> " + std::to_string((rank + 1) % n) +
                      "; the conservative engine needs a positive latency on every ring "
                      "edge for lookahead"};
    }
  }
  return ring;
}

/// The row's lookahead is its ring edges: the only remote sends are chunk
/// posts over ring edges that leave a chassis, each at that edge's routed
/// latency, so the lookahead graph is the chassis ring with that bound per
/// edge. A one-chassis row declares no edge and drains in a single epoch.
std::vector<sim::LookaheadEdge> PartitionedRow::ring_lookahead(
    const std::vector<sim::PartitionId>& part_of, const std::vector<RingEdge>& ring) {
  std::vector<sim::LookaheadEdge> edges;
  for (std::size_t rank = 0; rank < ring.size(); ++rank) {
    const sim::PartitionId src = part_of[rank];
    const sim::PartitionId dst = part_of[(rank + 1) % ring.size()];
    if (src != dst) edges.push_back(sim::LookaheadEdge{src, dst, ring[rank].latency});
  }
  return edges;
}

PartitionedRow::PartitionedRow(RowParams params)
    : params_(std::move(params)),
      owned_topo_(build_row_topology(params_)),
      topo_(params_.topology != nullptr ? params_.topology : &owned_topo_),
      part_of_(chassis_partitions(*topo_, params_.gpus)),
      ring_(route_ring(*topo_, params_)),
      engine_(static_cast<int>(*std::max_element(part_of_.begin(), part_of_.end())) + 1,
              ring_lookahead(part_of_, ring_),
              {.threads = params_.sim_threads}) {
  ranks_.reserve(part_of_.size());
  for (const sim::PartitionId part : part_of_) {
    ranks_.emplace_back(new Rank{engine_.partition(part).scheduler(), params_.device_params});
  }
}

PartitionedRow::~PartitionedRow() = default;

Device& PartitionedRow::device(int rank) {
  return ranks_.at(static_cast<std::size_t>(rank))->dev;
}

SimTime PartitionedRow::rank_finish_time(int rank) const {
  return ranks_.at(static_cast<std::size_t>(rank))->finished;
}

std::uint64_t PartitionedRow::digest() const {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  const auto mix = [&h](std::int64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= static_cast<std::uint64_t>(v >> (8 * i)) & 0xffULL;
      h *= 0x100000001b3ULL;
    }
  };
  for (const auto& r : ranks_) {
    mix(r->finished.ns());
    for (const std::int64_t t : r->step_ends) mix(t);
  }
  return h;
}

sim::Task<> PartitionedRow::rank_loop(int rank, const RowTraining& training) {
  Rank& self = *ranks_[static_cast<std::size_t>(rank)];
  sim::Partition& part = engine_.partition(part_of_[static_cast<std::size_t>(rank)]);
  sim::Scheduler& sched = part.scheduler();
  const int ranks = size();
  const int phases = 2 * (ranks - 1);
  const int next = (rank + 1) % ranks;
  const sim::PartitionId next_part = part_of_[static_cast<std::size_t>(next)];
  const NameRef send_name{"row_allreduce_send"};
  const NameRef recv_name{"row_allreduce_recv"};
  // Optical fabrics: this rank's uplink circuit must be pointed at the
  // ring neighbor before the first chunk leaves; the neighbor never
  // changes, so the retarget is paid exactly once per rank. (Routed
  // before the run — the topology's route cache is not touched from
  // worker threads.)
  bool circuit_pending = ranks > 1 && ring_[static_cast<std::size_t>(rank)].optical;
  const SimDuration edge_transfer =
      ranks > 1 ? edge_transfer_[static_cast<std::size_t>(rank)] : SimDuration::zero();
  const SimDuration edge_delay =
      ranks > 1 ? ring_[static_cast<std::size_t>(rank)].latency : SimDuration::zero();

  for (int step = 0; step < training.steps; ++step) {
    // Host submission lane + compute: entirely partition-local.
    for (const RowKernel& k : training.kernels) {
      if (training.submit_cost.ns() > 0) co_await sim::delay(training.submit_cost);
      OpRecord rec;
      rec.kind = OpKind::kKernel;
      rec.name = k.name;
      rec.context_id = rank;
      rec.process_id = rank;
      co_await self.dev.compute_engine().execute(rec, k.duration);
      if (auto* sink = self.dev.record_sink(); sink != nullptr) sink->on_op(rec);
    }

    // Ring allreduce as message exchange. Each phase: post the chunk to
    // the ring neighbor (a local event when the neighbor shares this
    // chassis), book the outbound DMA — the D2H engine is idle at every
    // phase start, since the last phase waited its DMA out — then wait
    // once, until both the inbound chunk and the local DMA have drained.
    for (int phase = 0; phase < phases; ++phase) {
      if (circuit_pending) {
        co_await sim::delay(topo_->ocs_reconfigure());
        circuit_pending = false;
      }
      part.send(next_part, edge_delay,
                RowArrival{this, next, chunk_, edge_transfer, recv_name});
      OpRecord out;
      out.kind = OpKind::kMemcpyD2H;
      out.name = send_name;
      out.bytes = chunk_;
      self.dev.d2h_engine().book(out, edge_transfer);
      if (auto* sink = self.dev.record_sink(); sink != nullptr) sink->on_op(out);
      co_await self.phase_drained(out.end);
    }
    self.step_ends.push_back(sched.now().ns());
  }
  self.finished = sched.now();
}

SimTime PartitionedRow::run_training(const RowTraining& training) {
  RSD_ASSERT(training.steps >= 1);
  chunk_ = size() > 1 ? training.gradient_bytes / static_cast<Bytes>(size())
                      : training.gradient_bytes;
  // Chunk serialisation per ring edge from the machine model; on the
  // default ring this is latency + chunk/bandwidth, exactly the pre-
  // machine-model arithmetic.
  edge_transfer_.resize(ring_.size());
  for (std::size_t rank = 0; rank < ring_.size(); ++rank) {
    edge_transfer_[rank] =
        ring_[rank].latency + interconnect::serialization_time(static_cast<double>(chunk_),
                                                               ring_[rank].bottleneck_gib_s);
  }
  for (int rank = 0; rank < size(); ++rank) {
    sim::Partition& part = engine_.partition(part_of_[static_cast<std::size_t>(rank)]);
    part.spawn([&] { return rank_loop(rank, training); });
  }
  engine_.run();
  RSD_ASSERT(engine_.unfinished_count() == 0);
  SimTime finish = SimTime::zero();
  for (const auto& r : ranks_) finish = std::max(finish, r->finished);
  return finish;
}

}  // namespace rsd::gpu

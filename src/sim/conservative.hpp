// Conservative parallel discrete-event engine (`sim::ParallelEngine`).
//
// Shards one simulation across `Partition`s (per device/chassis; see
// partition.hpp) and advances them in *epochs* under conservative
// lookahead. The lookahead is a graph declared at construction: each
// `LookaheadEdge` src -> dst carries the minimum delay of any send on it
// (e.g. the fabric's routed path latency). Each epoch:
//
//   1. route   — a serial O(messages) pass moves every message sent last
//                epoch into its destination's inbox (replacing each of P
//                partitions scanning all P outboxes: the old O(P^2)
//                per-epoch walk dominated wall time on a 512-GPU row);
//   2. a_i     = earliest instant partition i can still act (its next
//                local event or an undelivered inbound message);
//   3. horizon — per partition: j's horizon is the earliest any message
//                chain could still reach it, min over paths i -> ... -> j
//                in the edge graph of a_i + (sum of edge lookaheads) — one
//                multi-source Dijkstra per epoch, seeded with a_i. A
//                partition no chain can reach drains its queue entirely,
//                so an engine without edges runs in one epoch;
//   4. all partitions, in parallel on an `exec::Team`, deliver their
//                inbox — each message queued as a plain call at its
//                timestamp (`Scheduler::call_at`) — then run their local
//                queues up to (not including) their horizon;
//   5. barrier; outbox buffers flip; repeat until no work remains.
//
// This is the global-epoch-barrier member of the conservative family
// (null-message-free CMB). It is sound because messages deliver only at
// epoch starts, so anything partition i sends during this epoch leaves no
// earlier than a_i, and every edge hop adds at least its declared
// lookahead (send() asserts the per-pair minimum delay and rejects sends
// over undeclared pairs). Positive edge bounds guarantee progress: every
// epoch retires at least the events in [min a_i, min a_i + shortest edge)
// — no deadlock protocol.
//
// Determinism at any thread count — the invariant every tracked CSV
// depends on — holds by construction:
//   * epoch boundaries are pure functions of simulation state (min over
//     partition-local quantities), never of thread timing;
//   * within an epoch partitions share nothing; the Team only decides
//     WHICH OS thread runs a partition's sequential slice;
//   * inbound messages merge in sorted `(at, src, seq)` order, with seq
//     assigned by the (sequential) sender — arrival order is irrelevant.
//
// Memory: each partition's coroutine frames recycle through its own
// FrameArena (ArenaScope around every slice), so the allocation-free hot
// path of the sequential core survives partitioning, and a partition may
// be processed by a different worker every epoch without violating the
// arena's affinity rules.
#pragma once

#include <algorithm>
#include <cstdint>
#include <limits>
#include <memory>
#include <utility>
#include <vector>

#include "core/error.hpp"
#include "core/units.hpp"
#include "exec/team.hpp"
#include "obs/metrics.hpp"
#include "obs/tracer.hpp"
#include "sim/arena.hpp"
#include "sim/partition.hpp"
#include "sim/scheduler.hpp"

namespace rsd::sim {

/// One directed edge of the lookahead graph: any message from partition
/// `src` to partition `dst` is guaranteed to carry at least `lookahead`
/// of delay (e.g. the routed path latency between the devices the two
/// partitions simulate).
struct LookaheadEdge {
  PartitionId src = 0;
  PartitionId dst = 0;
  SimDuration lookahead = SimDuration::zero();
};

class ParallelEngine {
 public:
  struct Options {
    /// Execution width. <= 0 resolves to `exec::default_sim_thread_count()`
    /// (the RSD_SIM_THREADS env var, else 1). Output is identical at any
    /// value — threads are a throughput knob, never a semantic one.
    int threads = 0;
  };

  /// `edges` is the lookahead graph: every remote send must travel a
  /// declared edge with at least that edge's lookahead of delay (asserted
  /// in send()); duplicate edges keep the smaller bound. No edges means no
  /// partition can receive a message: every horizon is infinite and run()
  /// drains all local work in one epoch.
  ParallelEngine(int partitions, const std::vector<LookaheadEdge>& edges, Options options)
      : threads_(options.threads > 0 ? options.threads : exec::default_sim_thread_count()),
        team_(threads_) {
    RSD_ASSERT(partitions >= 1);
    const auto n = static_cast<std::size_t>(partitions);
    parts_.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
      parts_.emplace_back(new Partition{*this, static_cast<PartitionId>(i)});
    }
    slots_.resize(n);
    scratch_.resize(n);
    timelines_.resize(n);
    inflight_.resize(n);
    avail_.resize(n);

    edge_min_ns_.assign(n * n, kNoEdge);
    for (const LookaheadEdge& e : edges) {
      RSD_ASSERT(static_cast<std::size_t>(e.src) < n);
      RSD_ASSERT(static_cast<std::size_t>(e.dst) < n);
      RSD_ASSERT(e.src != e.dst);
      RSD_ASSERT(e.lookahead.ns() > 0);
      std::int64_t& cell = edge_min_ns_[e.src * n + e.dst];
      cell = std::min(cell, e.lookahead.ns());
      min_edge_ns_ = std::min(min_edge_ns_, e.lookahead.ns());
    }
    out_edges_.resize(n);
    for (std::size_t src = 0; src < n; ++src) {
      for (std::size_t dst = 0; dst < n; ++dst) {
        const std::int64_t ns = edge_min_ns_[src * n + dst];
        if (ns != kNoEdge) {
          out_edges_[src].push_back({static_cast<PartitionId>(dst), ns});
        }
      }
    }
  }

  /// Partition teardown frees coroutine frames into the owning arenas, so
  /// each destruction runs under that partition's ArenaScope.
  ~ParallelEngine() {
    for (auto& p : parts_) {
      ArenaScope scope{p->arena_};
      p.reset();
    }
  }

  ParallelEngine(const ParallelEngine&) = delete;
  ParallelEngine& operator=(const ParallelEngine&) = delete;

  [[nodiscard]] int size() const { return static_cast<int>(parts_.size()); }
  [[nodiscard]] int threads() const { return threads_; }

  /// Seeded worker-claim jitter for determinism stress tests
  /// (exec::Team::set_claim_jitter); 0 disables it. Set before run().
  void set_claim_jitter(std::uint64_t seed) { team_.set_claim_jitter(seed); }

  [[nodiscard]] Partition& partition(PartitionId id) {
    return *parts_.at(static_cast<std::size_t>(id));
  }

  /// The minimum legal delay of a send from `src` to `dst`: the declared
  /// edge bound (an undeclared pair is unbounded, i.e. the send is
  /// rejected).
  [[nodiscard]] SimDuration min_send_delay(PartitionId src, PartitionId dst) const {
    return duration::nanoseconds(
        edge_min_ns_[static_cast<std::size_t>(src) * parts_.size() + dst]);
  }

  /// Run epochs until no partition holds events and no message is in
  /// flight, then drain root-task completions (rethrowing the first
  /// failure of a root task or message by partition index — a
  /// deterministic choice). After run(),
  /// `unfinished_count() > 0` indicates a simulated deadlock.
  void run() {
    obs::Span span{"pardes", "run",
                   {obs::Arg::n("partitions", static_cast<double>(parts_.size())),
                    obs::Arg::n("threads", static_cast<double>(threads_))}};
    const std::uint64_t epochs_before = epochs_;
    const std::uint64_t gain_before = horizon_gain_ns_;
    refresh();
    for (;;) {
      // Serial routing pass: move every message sent last epoch into its
      // destination's inbox — O(messages), where each partition scanning
      // every outbox would be O(partitions^2) per epoch. The refs point
      // into drain-side buffers, which stay untouched until this buffer
      // parity fills again next epoch.
      const int drain = fill_parity_;
      for (std::size_t i = 0; i < parts_.size(); ++i) {
        scratch_[i].clear();
        inflight_[i] = SimTime::max();
      }
      for (const auto& sp : parts_) {
        for (const RemoteMsg& m : sp->outbox_[drain]) {
          scratch_[m.dst].push_back(InRef{m.at, sp->id_, m.seq, &m.call});
          inflight_[m.dst] = std::min(inflight_[m.dst], m.at);
        }
      }
      SimTime t_min = SimTime::max();
      for (std::size_t i = 0; i < parts_.size(); ++i) {
        avail_[i] = std::min(slots_[i].next_time, inflight_[i]);
        t_min = std::min(t_min, avail_[i]);
      }
      if (t_min == SimTime::max()) break;
      compute_horizons(t_min);
      ++epochs_;
      fill_parity_ ^= 1;
      team_.run(parts_.size(), [this](std::size_t i) { process(i); });
    }
    for (auto& p : parts_) {
      ArenaScope scope{p->arena_};
      p->sched_.run();  // queue is empty: completion checks + rethrow only
    }
    flush_metrics(epochs_ - epochs_before, horizon_gain_ns_ - gain_before);
  }

  // -- Aggregate statistics (all deterministic) ---------------------------
  [[nodiscard]] std::uint64_t epochs() const { return epochs_; }
  [[nodiscard]] std::uint64_t executed_events() const {
    std::uint64_t n = 0;
    for (const auto& p : parts_) n += p->sched_.executed_events();
    return n;
  }
  [[nodiscard]] std::uint64_t messages_delivered() const {
    std::uint64_t n = 0;
    for (const auto& s : slots_) n += s.delivered;
    return n;
  }
  /// Partition-epochs that retired zero events while holding pending work
  /// beyond the horizon — the lookahead-stall tally. The stall *fraction*
  /// is this over (epochs * partitions).
  [[nodiscard]] std::uint64_t stalled_partition_epochs() const {
    std::uint64_t n = 0;
    for (const auto& s : slots_) n += s.stalls;
    return n;
  }
  /// Cumulative extra horizon (ns, summed over partition-epochs) the
  /// lookahead graph won over the uniform bound `min a_i + shortest edge`.
  /// Non-negative by construction; zero without edges.
  [[nodiscard]] std::uint64_t horizon_gain_ns() const { return horizon_gain_ns_; }
  [[nodiscard]] std::size_t unfinished_count() const {
    std::size_t n = 0;
    for (const auto& p : parts_) n += p->sched_.unfinished_count();
    return n;
  }

 private:
  friend class Partition;

  /// Per-partition engine-side state, cache-line padded: every worker
  /// writes only its claimed partitions' slots within an epoch (the
  /// horizon is written serially between epochs, read by the worker).
  struct alignas(64) Slot {
    SimTime next_time = SimTime::max();
    SimTime horizon = SimTime::max();
    std::uint64_t delivered = 0;
    std::uint64_t stalls = 0;
  };

  /// Reference into a source outbox, collected per destination and sorted
  /// by the deterministic merge key.
  struct InRef {
    SimTime at;
    PartitionId src;
    std::uint64_t seq;
    const CrossCall* call;

    [[nodiscard]] bool operator<(const InRef& o) const {
      if (at != o.at) return at < o.at;
      if (src != o.src) return src < o.src;
      return seq < o.seq;
    }
  };

  /// Multi-source Dijkstra frontier entry for compute_horizons, ordered
  /// deterministically by (time, partition id).
  struct HeapNode {
    SimTime at;
    PartitionId part;

    struct Later {  // make_heap comparator: min-heap on (at, part)
      [[nodiscard]] bool operator()(const HeapNode& a, const HeapNode& b) const {
        if (a.at != b.at) return a.at > b.at;
        return a.part > b.part;
      }
    };
  };

  /// Prime the per-partition next-event slots from the schedulers. run()
  /// calls this on entry, so work spawned between runs is picked up.
  void refresh() {
    for (std::size_t i = 0; i < parts_.size(); ++i) {
      slots_[i].next_time = parts_[i]->sched_.next_event_time();
    }
  }

  /// Distance-aware per-partition horizons: one multi-source Dijkstra over
  /// the lookahead graph, seeded with a_i — the earliest activity e_i of
  /// each partition — so h_j = min over in-edges (i, j) of e_i + L_ij is
  /// the earliest instant any message chain could still reach j. Ties
  /// break on (time, partition id): pure simulation state, thread-safe by
  /// running serially between epochs.
  void compute_horizons(SimTime t_min) {
    const std::size_t n = parts_.size();
    dist_.assign(n, SimTime::max());
    arrive_.assign(n, SimTime::max());
    heap_.clear();
    for (std::size_t i = 0; i < n; ++i) {
      if (avail_[i] != SimTime::max()) {
        dist_[i] = avail_[i];
        heap_.push_back(HeapNode{avail_[i], static_cast<PartitionId>(i)});
      }
    }
    std::make_heap(heap_.begin(), heap_.end(), HeapNode::Later{});
    while (!heap_.empty()) {
      std::pop_heap(heap_.begin(), heap_.end(), HeapNode::Later{});
      const HeapNode top = heap_.back();
      heap_.pop_back();
      if (top.at > dist_[top.part]) continue;
      for (const auto& [dst, lookahead_ns] : out_edges_[top.part]) {
        const SimTime cand = top.at + duration::nanoseconds(lookahead_ns);
        arrive_[dst] = std::min(arrive_[dst], cand);
        if (cand < dist_[dst]) {
          dist_[dst] = cand;
          heap_.push_back(HeapNode{cand, dst});
          std::push_heap(heap_.begin(), heap_.end(), HeapNode::Later{});
        }
      }
    }
    for (std::size_t j = 0; j < n; ++j) {
      slots_[j].horizon = arrive_[j];
      // A finite arrival implies a declared edge, so min_edge_ns_ is finite.
      if (arrive_[j] != SimTime::max()) {
        const SimTime base = t_min + duration::nanoseconds(min_edge_ns_);
        horizon_gain_ns_ += static_cast<std::uint64_t>((arrive_[j] - base).ns());
      }
    }
  }

  void process(std::size_t i) {
    Partition& p = *parts_[i];
    ArenaScope scope{p.arena_};

    // The buffer this partition fills now was routed from two epochs ago
    // (the flip + barrier in between make the clear safe).
    auto& out = p.outbox_[fill_parity_];
    out.clear();
    p.out_cur_ = &out;

    // The engine's routing pass already moved this partition's inbound
    // messages into scratch_[i]; merge-sort by (at, src, seq), deliver.
    const SimTime horizon = slots_[i].horizon;
    auto& in = scratch_[i];
    std::sort(in.begin(), in.end());
    for (const InRef& r : in) p.sched_.call_at(*r.call, r.at);
    slots_[i].delivered += in.size();

    const std::uint64_t executed = p.sched_.run_before(horizon);
    const SimTime next = p.sched_.next_event_time();
    const bool stalled = executed == 0 && next != SimTime::max();
    if (stalled) ++slots_[i].stalls;
    slots_[i].next_time = next;

    // Epoch timeline sample. Each partition's ring is touched only by the
    // worker that claimed it this epoch, and epochs are barrier-separated,
    // so the ring needs no lock; which OS thread wrote a sample is
    // invisible in the data, keeping the flushed timeline byte-identical
    // at any thread count.
    if (obs::Tracer::enabled()) {
      EpochRing& ring = timelines_[i];
      if (ring.buf.size() < kEpochRingCapacity) ring.buf.resize(kEpochRingCapacity);
      if (ring.count == ring.buf.size()) {
        ++ring.dropped;
      } else {
        ++ring.count;
      }
      ring.buf[ring.next] =
          EpochSample{horizon.ns(), executed, static_cast<std::uint64_t>(in.size()), stalled};
      ring.next = (ring.next + 1) % ring.buf.size();
    }
  }

  /// Quiesce-point flush into the global registry (obs design: no per-event
  /// atomics on the hot path) plus the per-partition epoch timelines.
  void flush_metrics(std::uint64_t run_epochs, std::uint64_t run_gain_ns) {
    auto& reg = obs::Registry::global();
    reg.counter("pardes.runs").add(1);
    reg.counter("pardes.epochs").add(static_cast<std::int64_t>(run_epochs));
    reg.counter("pardes.horizon_gain").add(static_cast<std::int64_t>(run_gain_ns));
    reg.counter("pardes.messages").add(static_cast<std::int64_t>(messages_delivered()));
    reg.counter("pardes.lookahead_stalls")
        .add(static_cast<std::int64_t>(stalled_partition_epochs()));
    reg.gauge("pardes.threads").set(static_cast<double>(threads_));
    auto& events_hist = reg.histogram("pardes.partition_events");
    obs::HistogramData local;
    for (const auto& p : parts_) {
      local.observe(static_cast<std::int64_t>(p->sched_.executed_events()));
    }
    events_hist.merge(local);

    // Drain the epoch rings into the engine's simulated timeline: one
    // counter track per partition (kTrackPardesBase + i), samples stamped
    // with the epoch horizon. The drain runs on the single flushing thread
    // in partition order, and horizons strictly increase across epochs, so
    // the emitted sequence is a pure function of the simulation — the
    // byte-identity anchor for trace.json under any --sim-threads.
    if (obs::Tracer::enabled()) {
      auto& tracer = obs::Tracer::instance();
      if (sim_id_ < 0) sim_id_ = tracer.acquire_sim_id();
      for (std::size_t i = 0; i < parts_.size(); ++i) {
        EpochRing& ring = timelines_[i];
        const std::int32_t track =
            obs::kTrackPardesBase + static_cast<std::int32_t>(i);
        const std::size_t cap = ring.buf.size();
        for (std::size_t k = 0; k < ring.count; ++k) {
          const EpochSample& s = ring.buf[(ring.next + cap - ring.count + k) % cap];
          tracer.counter_sim(sim_id_, track, s.horizon_ns, "pardes", "epoch.executed",
                             static_cast<double>(s.executed));
          tracer.counter_sim(sim_id_, track, s.horizon_ns, "pardes", "epoch.delivered",
                             static_cast<double>(s.delivered));
          tracer.counter_sim(sim_id_, track, s.horizon_ns, "pardes", "epoch.stall",
                             s.stalled ? 1.0 : 0.0);
        }
        if (ring.dropped > 0) {
          tracer.instant("pardes", "epoch_ring_dropped",
                         {obs::Arg::n("partition", static_cast<double>(i)),
                          obs::Arg::n("dropped", static_cast<double>(ring.dropped))});
        }
        ring.next = 0;
        ring.count = 0;
        ring.dropped = 0;
      }
    }
  }

  /// One epoch of one partition, as recorded for the tracer timeline.
  struct EpochSample {
    std::int64_t horizon_ns = 0;
    std::uint64_t executed = 0;
    std::uint64_t delivered = 0;
    bool stalled = false;
  };

  /// Fixed-capacity per-partition ring (oldest samples overwritten): a
  /// long fleet can never exhaust memory through its epoch timeline.
  struct EpochRing {
    std::vector<EpochSample> buf;  ///< Allocated on first traced epoch.
    std::size_t next = 0;
    std::size_t count = 0;
    std::uint64_t dropped = 0;
  };

  static constexpr std::size_t kEpochRingCapacity = 1u << 12;
  static constexpr std::int64_t kNoEdge = std::numeric_limits<std::int64_t>::max();

  int threads_;
  exec::Team team_;
  std::vector<std::unique_ptr<Partition>> parts_;
  std::vector<Slot> slots_;
  std::vector<std::vector<InRef>> scratch_;
  std::vector<EpochRing> timelines_;
  std::vector<SimTime> inflight_;  ///< Per-dest min undelivered message time.
  std::vector<SimTime> avail_;     ///< a_i: earliest instant i can still act.
  int fill_parity_ = 0;
  std::uint64_t epochs_ = 0;
  std::int32_t sim_id_ = -1;  ///< Tracer timeline id, acquired at first flush.

  // Lookahead graph: dense per-pair minimum send delays (kNoEdge-filled;
  // send() asserts against it), adjacency lists for the per-epoch horizon
  // Dijkstra, and reusable scratch for that search.
  std::int64_t min_edge_ns_ = kNoEdge;
  std::vector<std::int64_t> edge_min_ns_;
  std::vector<std::vector<std::pair<PartitionId, std::int64_t>>> out_edges_;
  std::vector<SimTime> dist_;
  std::vector<SimTime> arrive_;
  std::vector<HeapNode> heap_;
  std::uint64_t horizon_gain_ns_ = 0;
};

inline void Partition::send(PartitionId dst, SimDuration delay, CrossCall call) {
  RSD_ASSERT(static_cast<std::size_t>(dst) < static_cast<std::size_t>(engine_.size()));
  const SimTime at = sched_.now() + delay;
  if (dst == id_) {
    // Local fast path: an ordinary event, no lookahead constraint.
    sched_.call_at(call, at);
    return;
  }
  // A remote send obeys the declared (src, dst) edge bound — and an
  // undeclared pair is unbounded, so the assert also rejects sends the
  // lookahead graph never promised the horizon computation.
  RSD_ASSERT(delay >= engine_.min_send_delay(id_, dst));
  RSD_ASSERT(out_cur_ != nullptr);  // only legal inside an epoch slice
  out_cur_->push_back(RemoteMsg{at, dst, send_seq_++, std::move(call)});
}

}  // namespace rsd::sim

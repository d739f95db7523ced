// Event-driven link network (`net::Network`): binds a Topology to a
// discrete-event scheduler and executes transfers as timestamped per-link
// occupations with FIFO contention.
//
// Model: store-and-forward pipelining. A transfer walks its routed path
// link by link; each link is a FIFO wire occupied for the payload's
// serialisation time, after which propagation latency (plus the
// forwarding latency of the node being crossed) elapses off-link — so
// back-to-back transfers pipeline on a link, and two transfers crossing
// the same link genuinely queue. On an uncontended single-hop path the
// cost collapses to latency + bytes/bandwidth, which is exactly the
// closed-form alpha-beta transfer — the parity the analytic models in
// gpusim/collective.hpp are kept around to cross-check
// (tests/net_collective_test.cpp).
//
// One booking rule prices every hop, the one gpu::Engine::book applies to
// device engines. Each link keeps the ends of its booked serialisations,
// oldest first. A transfer that reaches a link at `now` retires the ends
// at or before `now`, starts at `now` if none is left and otherwise at the
// last booked end, books `start + serialise`, and sleeps once: until the
// serialisation ends plus the link latency (plus the crossed node's
// forwarding cost when another hop follows). One event per hop, no
// waiter list, and the whole transfer path is allocation-free in steady
// state (arena-backed coroutine frames, inline booking FIFOs, reused
// usage buckets; asserted via rsd_alloc_counter).
//
// Tie rule: a booking that ends at or before `now` is over, so a transfer
// arriving exactly as the wire frees finds it free. Same-instant arrivals
// at a link are served in the order they booked their previous hop (the
// order the scheduler runs their arrival events). A single-hop transfer
// that finds its link free counts as an *express* transfer; one that
// finds any link of its path booked counts as contended.
//
// Optical circuit switches add circuit state: each ingress port drives
// one egress at a time, and a transfer that needs the port pointed
// elsewhere first pays the topology's reconfiguration delay. The circuit
// map lives in the Network (per simulation), so replays are
// deterministic.
//
// Counters (transfers, contended and express transfers, circuit
// reconfigurations, busy time) accumulate locally and flush into the
// global obs::Registry at quiesce points: the network registers itself
// with obs::QuiesceRegistry so the harness can force a flush at
// experiment boundaries, and the destructor flushes whatever remains —
// `flush()` is idempotent via watermarks, so the two compose.
//
// Telemetry: every link additionally keeps a time-bucketed usage sampler
// (busy nanoseconds, transfer count, and peak queue depth per fixed-width
// simulated-time bucket). A transfer records its queue depth (outstanding
// bookings + 1) in the bucket of its arrival, and its busy time and count
// in the bucket where its serialisation starts. The samples surface two
// ways: `link_usage()` returns them for contention-heatmap CSVs, and —
// when the obs tracer is enabled — `flush()` emits them as per-link
// Perfetto counter tracks ("link.util", "link.queue" on kTrackNetBase +
// link) in the network's own simulated timeline.
#pragma once

#include <cstdint>
#include <utility>
#include <vector>

#include "core/inline_fifo.hpp"
#include "core/units.hpp"
#include "interconnect/topology.hpp"
#include "interconnect/transport.hpp"
#include "obs/quiesce.hpp"
#include "sim/scheduler.hpp"
#include "sim/task.hpp"

namespace rsd::net {

/// One usage-sampler bucket of one link: activity inside
/// [bucket_start_ns, bucket_start_ns + bucket width).
struct LinkUsageSample {
  LinkId link = kInvalidLink;
  std::int64_t bucket_start_ns = 0;
  std::int64_t busy_ns = 0;          ///< Serialisation time begun in-bucket.
  std::uint64_t transfers = 0;       ///< Link occupations begun in-bucket.
  int max_queue_depth = 0;           ///< Peak arrivals in flight (incl. served).
};

class Network : public Transport {
 public:
  /// The topology must outlive the network.
  Network(sim::Scheduler& sched, const Topology& topology);
  ~Network() override;
  Network(const Network&) = delete;
  Network& operator=(const Network&) = delete;

  [[nodiscard]] sim::Scheduler& scheduler() { return sched_; }
  [[nodiscard]] const Topology& topology() const override { return topo_; }

  /// Move `bytes` from node `src` to node `dst` over the routed path.
  /// Resumes when the last byte arrives at `dst`. `stats`, when non-null,
  /// receives the reconfiguration delay paid and whether the transfer
  /// queued (the Transport observability contract).
  sim::Task<> transfer(NodeId src, NodeId dst, Bytes bytes, TransferStats* stats) override;
  using Transport::transfer;

  /// Uncontended closed-form cost (Topology::transfer_time).
  [[nodiscard]] SimDuration price(NodeId src, NodeId dst, Bytes bytes) const override {
    return topo_.transfer_time(src, dst, bytes);
  }

  // -- Deterministic statistics ------------------------------------------
  [[nodiscard]] std::uint64_t transfers() const { return transfers_; }
  /// Transfers that found at least one link busy and had to queue.
  [[nodiscard]] std::uint64_t contended_transfers() const { return contended_; }
  /// Single-hop transfers that found their link free.
  [[nodiscard]] std::uint64_t express_transfers() const { return express_; }
  [[nodiscard]] std::uint64_t reconfigurations() const { return reconfigs_; }
  /// Transfers whose routed path crossed a NIC or fibre hop (i.e. left a
  /// chassis or touched its NIC) — zero on flat single-chassis fabrics.
  [[nodiscard]] std::uint64_t nic_transfers() const { return nic_transfers_; }
  /// Serialisation time spent on kFibre links specifically.
  [[nodiscard]] SimDuration fibre_busy_total() const { return fibre_busy_; }
  [[nodiscard]] SimDuration link_busy_total() const { return busy_total_; }

  // -- Telemetry ----------------------------------------------------------
  /// Usage-sampler bucket width; applies to buckets opened from now on.
  void set_usage_bucket(SimDuration width);
  [[nodiscard]] SimDuration usage_bucket() const {
    return duration::nanoseconds(bucket_width_ns_);
  }

  /// All sampler buckets so far, sorted by (link, bucket start).
  [[nodiscard]] std::vector<LinkUsageSample> link_usage() const;

  /// Quiesce-point flush: push counter deltas since the previous flush
  /// into the global obs::Registry and, when tracing is enabled, emit any
  /// not-yet-exported sampler buckets as per-link counter tracks.
  /// Idempotent; also runs via obs::QuiesceRegistry and at destruction.
  void flush();

 private:
  struct LinkState {
    /// Ends of the booked serialisations not yet over, oldest first.
    InlineFifo<SimTime, 4> booked;
    /// Optical ingress ports: the egress link the circuit currently
    /// drives; kInvalidLink until first configured.
    LinkId circuit = kInvalidLink;

    struct Bucket {
      std::int64_t busy_ns = 0;
      std::uint64_t transfers = 0;
      int max_queue_depth = 0;
      bool exported = false;  ///< Already emitted as tracer counters.
    };
    /// Usage-sampler buckets in bucket-start order. A queued transfer books
    /// busy time into the bucket where it will start, which can open a
    /// bucket ahead of a later arrival's, so a new bucket is inserted in
    /// order; a flat vector keeps the hot path allocation-free once warm
    /// (a std::map here would allocate a node per bucket).
    std::vector<std::pair<std::int64_t, Bucket>> buckets;
  };

  [[nodiscard]] LinkState::Bucket& bucket_at(LinkState& state, SimTime at);

  sim::Scheduler& sched_;
  const Topology& topo_;
  std::vector<LinkState> links_;  ///< Indexed by LinkId; sized once.
  std::uint64_t transfers_ = 0;
  std::uint64_t contended_ = 0;
  std::uint64_t express_ = 0;
  std::uint64_t reconfigs_ = 0;
  std::uint64_t nic_transfers_ = 0;
  SimDuration fibre_busy_ = SimDuration::zero();
  SimDuration busy_total_ = SimDuration::zero();

  // Quiesce-flush watermarks: the cumulative value already pushed into the
  // registry, so flush() only ever adds the delta. Route-table hits live
  // on the (possibly shared) topology; this network reports the hits that
  // occur during its own lifetime, so the watermark starts at the
  // topology's count at construction.
  std::uint64_t flushed_transfers_ = 0;
  std::uint64_t flushed_contended_ = 0;
  std::uint64_t flushed_express_ = 0;
  std::uint64_t flushed_reconfigs_ = 0;
  std::uint64_t flushed_nic_transfers_ = 0;
  std::uint64_t flushed_route_hits_ = 0;
  std::int64_t flushed_busy_ns_ = 0;
  std::int64_t flushed_fibre_busy_ns_ = 0;

  std::int64_t bucket_width_ns_ = 100'000;  ///< 100 us default.
  std::int32_t sim_id_ = -1;  ///< Tracer timeline id, acquired lazily.
  obs::QuiesceRegistry::Handle quiesce_handle_ = 0;
};

}  // namespace rsd::net

// A disaggregated GPU row on the partitioned engine (`gpu::PartitionedRow`).
//
// The sequential `Chassis` couples all of its devices to one Scheduler, so
// a row-scale composition (hundreds of GPUs) serializes on a single event
// queue. PartitionedRow gives each chassis of the row its own
// `sim::Partition`, using the chassis tags the row's topology records
// (flat fabrics group `gpus_per_chassis` GPUs per tag): the devices, host
// submission lanes and per-rank events of a chassis share that
// partition's scheduler, as the devices of a `Chassis` do. The only
// inter-GPU interaction, ring-allreduce chunk exchange, is a plain local
// event between two ranks of one chassis and a timestamped cross-partition
// message on a ring edge that leaves the chassis — a 512-GPU row at 8 GPUs
// per chassis runs on 64 partitions, and a row of one chassis on one.
//
// The row's interconnect is a pluggable `net::Topology` (ring, full mesh,
// electrical switch, or optical circuit switch — net::build_fabric built
// from `fabric_kind` and the link characteristics in `fabric`). The
// row's lookahead is its ring edges: the constructor routes each edge
// once, and the chassis-crossing ones become the engine's lookahead
// graph, each bounded by its routed latency — no chunk can arrive sooner
// than its edge's path delivers it, which is exactly the slack the engine
// needs to run chassis in parallel. A ring edge with zero latency cannot
// bound message arrival and is rejected with rsd::Error{kInvalidArgument}.
//
// Timing model per ring phase (chunk = bytes / ranks):
//   * the sender's D2H engine is occupied for the routed transfer time —
//     path latency + chunk serialisation at the bottleneck link (on the
//     default ring fabric: latency + chunk/bandwidth, exactly the
//     pre-machine-model arithmetic);
//   * the chunk lands at the receiver one routed path latency after the
//     send and occupies the receiver's H2D engine for the same transfer
//     duration;
//   * on an optical-circuit fabric, a rank's first send additionally pays
//     the circuit reconfiguration delay (its uplink is retargeted once —
//     the ring neighbor never changes afterwards);
//   * a rank leaves the phase when its own outbound DMA has drained AND
//     its inbound chunk has drained through its H2D engine — the neighbor
//     dependency chain that makes ring collectives bulk-synchronous
//     without any global barrier.
//
// Every engine op is booked in closed form (gpu::Engine::book): the rank
// posts its chunk and books its D2H inline, the arrival books the H2D at
// landing — on an idle engine, or chained behind the copies still booked
// there — and a kernel costs one booking and one sleep until its end. The
// arrival then wakes the rank directly at max(D2H end, drain) if it is
// already waiting; else it leaves the drain time for the rank, which
// sleeps until that max itself. A rank-phase therefore costs 2 events —
// the arrival and the rank's one resumption.
//
// Every quantity below is simulated time, so results are byte-identical at
// any `sim_threads` (asserted by tests/par_des_determinism_test.cpp and
// tests/gpusim_row_fabric_test.cpp, the latter per fabric).
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "core/names.hpp"
#include "core/units.hpp"
#include "gpusim/collective.hpp"
#include "gpusim/device.hpp"
#include "interconnect/fabric.hpp"
#include "interconnect/topology.hpp"
#include "sim/conservative.hpp"

namespace rsd::gpu {

struct RowParams {
  int gpus = 8;
  GpuInterconnect fabric = make_nvlink();
  DeviceParams device_params{};
  /// Shape of the row interconnect (net::build_fabric). The default ring
  /// reproduces the pre-machine-model row timing exactly.
  net::FabricKind fabric_kind = net::FabricKind::kRing;
  /// Chassis grouping recorded in the topology (device i -> chassis
  /// i / gpus_per_chassis); hierarchical collectives reduce per chassis,
  /// and the row runs one engine partition per chassis.
  int gpus_per_chassis = 8;
  /// Build the fabric as a true multi-chassis graph (per-chassis NICs +
  /// inter-chassis fibre, net::FabricParams::chassis_nics). Ring edges
  /// that cross a chassis boundary are then priced over their routed
  /// NIC/fibre path *per edge* — the ring is no longer rank-symmetric.
  /// False keeps the flat single-graph row, byte-identical to before.
  bool chassis_nics = false;
  /// Worker threads for the engine; <= 0 resolves RSD_SIM_THREADS, else 1.
  int sim_threads = 0;
  /// Non-zero: seeded worker-claim jitter (determinism stress testing).
  std::uint64_t jitter_seed = 0;
  /// Prebuilt fabric topology to share (it must outlive the row and match
  /// the fabric parameters above); null builds a private one. Sharing
  /// keeps the dense route tables warm across rows (fabric_compare builds
  /// each fabric once for all of its sections).
  const net::Topology* topology = nullptr;
};

/// One kernel of a rank's per-step sequence.
struct RowKernel {
  NameRef name;
  SimDuration duration;
};

/// Data-parallel training shape: every rank runs `kernels` (each preceded
/// by `submit_cost` of host work), then ring-allreduces `gradient_bytes`,
/// `steps` times.
struct RowTraining {
  std::vector<RowKernel> kernels;
  SimDuration submit_cost = SimDuration::zero();
  Bytes gradient_bytes = 32 * kMiB;
  int steps = 8;
};

class PartitionedRow {
 public:
  explicit PartitionedRow(RowParams params);
  ~PartitionedRow();
  PartitionedRow(const PartitionedRow&) = delete;
  PartitionedRow& operator=(const PartitionedRow&) = delete;

  [[nodiscard]] int size() const { return static_cast<int>(ranks_.size()); }
  [[nodiscard]] Device& device(int rank);
  [[nodiscard]] sim::ParallelEngine& engine() { return engine_; }
  [[nodiscard]] const net::Topology& topology() const { return *topo_; }

  /// Run the training loop to completion on every rank. Returns the row
  /// finish time (max over ranks). Callable once per row.
  SimTime run_training(const RowTraining& training);

  /// Per-rank completion time of the last step (after run_training).
  [[nodiscard]] SimTime rank_finish_time(int rank) const;

  /// FNV-1a fingerprint of every rank's per-step completion times — the
  /// byte-identity probe the determinism tests compare across thread
  /// counts.
  [[nodiscard]] std::uint64_t digest() const;

 private:
  struct Rank;
  /// The route-dependent pricing of ring edge rank -> rank+1.
  struct RingEdge {
    SimDuration latency;      ///< Routed path latency: the chunk's flight time.
    double bottleneck_gib_s;  ///< Routed path bottleneck: the chunk's serialisation.
    bool optical;             ///< The route crosses an optical circuit.
  };
  friend struct RowArrival;

  static std::vector<RingEdge> route_ring(const net::Topology& topo, const RowParams& params);
  static std::vector<sim::LookaheadEdge> ring_lookahead(
      const std::vector<sim::PartitionId>& part_of, const std::vector<RingEdge>& ring);
  sim::Task<> rank_loop(int rank, const RowTraining& training);

  RowParams params_;
  net::Topology owned_topo_;          ///< Built here unless params.topology is set.
  const net::Topology* topo_;         ///< The fabric in use (owned or shared).
  std::vector<sim::PartitionId> part_of_;  ///< Rank -> its chassis' partition.
  /// Ring edges indexed by sender rank (empty for a one-GPU row). Flat
  /// fabrics are rank-symmetric so every entry is equal; multi-chassis
  /// graphs price chassis-crossing edges over NIC/fibre routes.
  std::vector<RingEdge> ring_;
  sim::ParallelEngine engine_;
  std::vector<std::unique_ptr<Rank>> ranks_;
  std::vector<SimDuration> edge_transfer_;  ///< Per ring edge, at chunk_ bytes.
  Bytes chunk_ = 0;
};

}  // namespace rsd::gpu

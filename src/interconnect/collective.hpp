// Allreduce as data, and the one executor that runs it.
//
// `allreduce_schedule` decomposes an allreduce into the point-to-point
// transfers it generates: a `CollectiveSchedule` is an ordered list of
// steps, each either one bulk-synchronous phase of (src, dst, bytes)
// transfers or a fork of sub-schedules that run concurrently and then
// join. `run_schedule` executes any schedule; its callers differ only in
// how one transfer is launched:
//
//   * `run_allreduce` / `measure_allreduce` move each transfer over
//     `net::Network` links, so fabric shape, FIFO link contention, and OCS
//     circuit reconfiguration all show up in the result;
//   * `gpu::Chassis::allreduce` occupies its devices' copy engines (see
//     gpusim/chassis.hpp).
//
// Over uncontended Network links the scheduled ring and tree reproduce
// the closed forms `ring_allreduce_time` / `tree_allreduce_time` of
// gpusim/collective.hpp exactly — those stay as the reference oracle,
// asserted by tests/net_collective_test.cpp.
//
//   * ring:         2(n-1) neighbour phases moving bytes/n chunks
//                   (reduce-scatter + allgather);
//   * tree:         binomial reduce to rank 0 then binomial broadcast,
//                   full payload per transfer, 2*ceil(log2 n) phases;
//   * hierarchical: a fork of one ring per chassis (ascending chassis
//                   tag), a ring across the chassis leaders, then one
//                   phase in which leaders fan the result back out — the
//                   intra-chassis-then-inter-chassis pattern a row of CDI
//                   chassis wants.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "core/units.hpp"
#include "interconnect/fabric.hpp"
#include "interconnect/network.hpp"
#include "sim/scheduler.hpp"
#include "sim/sync.hpp"
#include "sim/task.hpp"

namespace rsd::net {

/// One point-to-point transfer between device indices of the topology.
struct Transfer {
  int src = 0;
  int dst = 0;
  Bytes bytes = 0;

  friend bool operator==(const Transfer&, const Transfer&) = default;
};

struct CollectiveSchedule {
  /// Exactly one of the two lists is non-empty. A phase launches all its
  /// transfers at once and ends when the last lands; a fork starts every
  /// sub-schedule at once and joins when the last finishes.
  struct Step {
    std::vector<Transfer> phase;
    std::vector<CollectiveSchedule> fork;
  };
  std::vector<Step> steps;
};

/// Decompose an allreduce of `bytes_per_rank` across devices
/// [0, participants) of `topology`. Reads only the devices' chassis tags
/// (hierarchical grouping); never routes. Throws
/// rsd::Error{kInvalidArgument} when participants < 1 or exceeds the
/// topology's device count.
[[nodiscard]] CollectiveSchedule allreduce_schedule(Algorithm algorithm,
                                                    const Topology& topology,
                                                    int participants, Bytes bytes_per_rank);

/// Starts one transfer of a phase: spawns exactly one process that moves
/// the bytes and calls `wg.done()` when they land. `step` is the phase's
/// index within its (sub-)schedule's steps.
using TransferLauncher = std::function<void(const Transfer&, int step, sim::WaitGroup& wg)>;

/// Execute `schedule` step by step. A phase launches its transfers in list
/// order; a fork spawns one process per sub-schedule in list order; both
/// then wait for everything they started. Resumes after the last step.
sim::Task<> run_schedule(sim::Scheduler& sched, CollectiveSchedule schedule,
                         TransferLauncher launch);

/// `allreduce_schedule` over the first `participants` devices, executed on
/// the network's links. Throws (before any simulated work) as
/// `allreduce_schedule` does.
sim::Task<> run_allreduce(Network& network, Algorithm algorithm, Bytes bytes_per_rank,
                          int participants);

/// One-shot measurement harness: build a private scheduler + network over
/// `topology`, run the collective to completion, report simulated
/// duration and the network's transfer statistics. Deterministic.
struct AllreduceReport {
  SimDuration duration;
  std::uint64_t transfers = 0;
  std::uint64_t contended_transfers = 0;
  std::uint64_t reconfigurations = 0;
  SimDuration link_busy_total;
  /// Single-hop transfers that found their link free (see Network's
  /// header).
  std::uint64_t express_transfers = 0;
  /// Dense route-table hits during this measurement (topology-level
  /// counter, reported as a delta so shared topologies don't bleed
  /// across runs).
  std::uint64_t route_hits = 0;
};

/// When `usage` is non-null it receives the network's per-link usage
/// sampler buckets (see `Network::link_usage`) — the raw material for
/// contention heatmaps.
[[nodiscard]] AllreduceReport measure_allreduce(const Topology& topology,
                                                Algorithm algorithm, Bytes bytes_per_rank,
                                                int participants,
                                                std::vector<LinkUsageSample>* usage = nullptr);

}  // namespace rsd::net

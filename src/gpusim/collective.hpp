// GPU-to-GPU collective cost models (Discussion section).
//
// The paper argues a CDI chassis can host many closely-coupled GPUs, so
// CPU-asynchronous operations like allreduce run faster than on GPUs
// scattered across traditional nodes. These are the standard alpha-beta
// models for ring and binary-tree allreduce over one GPU<->GPU link
// (an interconnect::LinkParams: make_nvlink, make_pcie_p2p, or
// make_cdi_link for GPUs scattered over the row), each step priced by
// interconnect::transfer_time.
//
// Since the link-graph machine model (interconnect/topology.hpp) landed,
// these closed forms are the documented *analytic cross-check* for the
// event-driven collectives in interconnect/collective.hpp: on an
// uncontended fabric the scheduled ring/tree algorithms must reproduce
// ring_allreduce_time / tree_allreduce_time exactly
// (tests/net_collective_test.cpp pins the parity).
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>

#include "core/error.hpp"
#include "core/units.hpp"
#include "interconnect/link.hpp"

namespace rsd::gpu {

/// The GPU<->GPU link under the name perfbench's fabric_mix spells.
using GpuInterconnect = interconnect::LinkParams;

/// Ring allreduce: 2(n-1) steps, each moving bytes/n per GPU.
/// Bandwidth-optimal; latency grows linearly with n.
[[nodiscard]] inline SimDuration ring_allreduce_time(Bytes bytes, int gpus,
                                                     const interconnect::LinkParams& link) {
  RSD_ASSERT(gpus >= 1);
  if (gpus == 1) return SimDuration::zero();
  const double chunk = static_cast<double>(bytes) / gpus;
  return std::int64_t{2} * std::int64_t{gpus - 1} * interconnect::transfer_time(link, chunk);
}

/// Binary-tree allreduce: 2*ceil(log2 n) steps of the full message.
/// Latency-optimal; bandwidth cost grows with log n.
[[nodiscard]] inline SimDuration tree_allreduce_time(Bytes bytes, int gpus,
                                                     const interconnect::LinkParams& link) {
  RSD_ASSERT(gpus >= 1);
  if (gpus == 1) return SimDuration::zero();
  const auto steps =
      static_cast<std::int64_t>(2 * std::ceil(std::log2(static_cast<double>(gpus))));
  return steps * interconnect::transfer_time(link, static_cast<double>(bytes));
}

/// What a tuned library (NCCL-style) would pick: the cheaper algorithm.
[[nodiscard]] inline SimDuration best_allreduce_time(Bytes bytes, int gpus,
                                                     const interconnect::LinkParams& link) {
  return std::min(ring_allreduce_time(bytes, gpus, link),
                  tree_allreduce_time(bytes, gpus, link));
}

}  // namespace rsd::gpu

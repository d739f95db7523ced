// Replay engine: executes any wl::Program on a simulated node.
//
// This is the single submission loop behind the proxy, LAMMPS, CosmoFlow
// (single- and multi-GPU), and trace-derived programs. Each lane becomes
// one simulated host thread driving its own gpu::Context; the engine wires
// in the SlackInjector (the paper's sleep-after-every-CUDA-call emulation),
// the shared MPI-style barrier, optional trace capture, and the two timing
// disciplines the workloads use:
//
//   * plain: runtime = simulation start -> all lanes finished (apps);
//   * gated: lanes allocate, signal ready, and block on a common start
//     gate; the engine times gate-open -> all lanes finished (the proxy's
//     main-compute-loop wall time, excluding allocation).
//
// Determinism: the interpreter issues exactly the API-call/await sequence
// a handwritten workload coroutine would (interpreter control flow adds no
// scheduler events), so a program emitted from a refactored workload
// reproduces the original's schedule byte for byte.
#pragma once

#include <cstdint>
#include <vector>

#include "core/units.hpp"
#include "gpusim/chassis.hpp"
#include "gpusim/context.hpp"
#include "gpusim/device.hpp"
#include "interconnect/fabric.hpp"
#include "interconnect/link.hpp"
#include "trace/trace.hpp"
#include "wl/program.hpp"

namespace rsd::wl {

/// The simulated node a program runs on. `chassis_gpus == 0` builds one
/// device behind host link `link`; > 0 builds a CDI chassis of that many
/// devices on `fabric` (lanes pick devices by index).
/// The chassis' GPU<->GPU traffic is routed over a `net::Topology` of
/// shape `fabric_kind`; `kAllReduce` ops execute as the chassis' ring
/// allreduce scheduled over that machine model.
struct NodeParams {
  gpu::DeviceParams device_params{};
  interconnect::LinkParams link = interconnect::make_pcie_gen4_x16();
  int chassis_gpus = 0;
  interconnect::LinkParams fabric = interconnect::make_nvlink();
  net::FabricKind fabric_kind = net::FabricKind::kFullMesh;
  /// > 0 (with chassis_gpus set): build a true multi-chassis machine graph
  /// — per-chassis NICs, inter-chassis fibre, a CDI host endpoint — and
  /// bind every lane's Context onto it, so memcpy payloads, injected
  /// slack, and cross-chassis collective chunks all route through the
  /// event-driven `net::Network` (FIFO contention, OCS circuits). 0 keeps
  /// the flat chassis, which emits no extra nodes, and replay timing is
  /// byte-identical to before the transport seam.
  int gpus_per_chassis = 0;
};

struct ReplayOptions {
  SimDuration slack = SimDuration::zero();  ///< Injected per API call.
  /// Sleep-overshoot noise: each injected slack sleeps per_call *
  /// exp(N(0, sigma)); 0 = deterministic.
  double host_noise_sigma = 0.0;
  std::uint64_t seed = 0x5eed;
  gpu::CommandPath command_path = gpu::CommandPath::local();
  gpu::SlackPosition slack_position = gpu::SlackPosition::kAfterCall;
  /// False detaches the injector entirely (contexts get nullptr), for
  /// workloads that never inject — multi-GPU CosmoFlow's workers.
  bool inject_slack = true;
  bool capture_trace = false;
};

struct ReplayResult {
  SimDuration runtime;        ///< Simulation start -> all lanes done.
  SimDuration timed_runtime;  ///< Gated programs: gate-open -> done; else == runtime.
  std::int64_t calls_delayed = 0;   ///< Injector's count (Equation 1's num_CUDA_calls).
  SimDuration total_injected;
  trace::Trace trace;         ///< Populated when capture_trace was set.
  /// Chassis fabric transfers in priced (program) order, with the OCS
  /// reconfiguration share split out — the causal feed of the critical-path
  /// attribution. Populated when capture_trace was set on a chassis node.
  std::vector<gpu::FabricTransferRecord> transfers;
};

class ReplayEngine {
 public:
  explicit ReplayEngine(NodeParams node = {}) : node_(std::move(node)) {}

  [[nodiscard]] const NodeParams& node() const { return node_; }

  /// Execute the program on a fresh simulated node. Throws
  /// rsd::Error{kInvalidArgument} on a malformed program and
  /// rsd::Error{kOutOfMemory} when lane buffers exceed device memory.
  [[nodiscard]] ReplayResult run(const Program& program,
                                 const ReplayOptions& options = {}) const;

 private:
  NodeParams node_;
};

}  // namespace rsd::wl

// A CDI GPU chassis: multiple simulated devices on a shared GPU fabric,
// with discrete-event collectives that actually occupy the devices' copy
// engines — the executable version of the Discussion's claim that
// chassis-coupled GPUs accelerate CPU-asynchronous collectives.
//
// The chassis builds a `net::Topology` for its fabric (full mesh by
// default — NVLink is all-to-all inside a chassis). An allreduce is the
// same `net::CollectiveSchedule` that `net::measure_allreduce` runs over
// links (interconnect/collective.hpp), executed by the same
// `net::run_schedule`; only the launch of one transfer is the chassis'
// own. A chassis-local transfer takes its duration from the routed path
// (path latency + serialisation at the bottleneck link) and holds the
// sender's D2H and receiver's H2D engines for it, so endpoint contention
// is the engines' FIFO queueing; an optical-circuit fabric additionally
// charges the reconfiguration delay whenever a sender's circuit has to
// retarget. On the default full mesh this is exactly
// `fabric.latency + bytes/bandwidth`. With chassis NICs, a transfer
// between chassis is store-and-forward through the row `net::Network`.
#pragma once

#include <memory>
#include <vector>

#include "core/error.hpp"
#include "core/units.hpp"
#include "gpusim/collective.hpp"
#include "gpusim/device.hpp"
#include "interconnect/fabric.hpp"
#include "interconnect/link.hpp"
#include "interconnect/network.hpp"
#include "interconnect/topology.hpp"
#include "sim/scheduler.hpp"
#include "sim/task.hpp"

namespace rsd::gpu {

/// One priced GPU<->GPU fabric transfer (program order): the causal record
/// behind a pair of kMemcpyD2H/H2D OpRecords. `reconfig` is the OCS
/// circuit-retarget component of `duration` (zero on non-optical fabrics).
struct FabricTransferRecord {
  int src = 0;
  int dst = 0;
  Bytes bytes = 0;
  SimTime priced_at;      ///< When the transfer was priced (phase start).
  SimDuration duration;   ///< Routed cost, reconfiguration included.
  SimDuration reconfig;   ///< OCS retarget share of `duration`.
  /// Cross-chassis transfers only: the NIC->NIC row-fabric leg executed by
  /// the net::Network (serialisation + fibre propagation + queueing), which
  /// no engine occupation covers — obs::critpath attributes this window to
  /// its NIC/fibre component. Zero-width on chassis-local transfers.
  SimTime nic_start;
  SimDuration nic;
};

struct ChassisParams {
  int gpus = 8;
  GpuInterconnect fabric = make_nvlink();
  DeviceParams device_params{};
  /// Shape of the GPU<->GPU fabric (net::build_fabric). Full mesh matches
  /// the pre-machine-model chassis timing exactly.
  net::FabricKind fabric_kind = net::FabricKind::kFullMesh;
  /// Grouping tag for the hierarchical algorithm: device i belongs to
  /// group i / gpus_per_chassis.
  int gpus_per_chassis = 8;
  /// Multi-chassis machine graph: emit per-chassis NICs and inter-chassis
  /// fibre (net::FabricParams::chassis_nics) plus the CDI host endpoint
  /// behind nic0, which Context transport bindings route host<->GPU
  /// traffic through. Cross-chassis collective chunks then execute over an
  /// event-driven net::Network — FIFO link contention, OCS circuits, and
  /// the express fast path included — instead of the analytic routed
  /// price. Off by default; flat chassis build byte-identical graphs and
  /// timings to before.
  bool chassis_nics = false;
};

class Chassis {
 public:
  Chassis(sim::Scheduler& sched, ChassisParams params);

  [[nodiscard]] int size() const { return static_cast<int>(devices_.size()); }
  [[nodiscard]] Device& device(int i) { return *devices_.at(static_cast<std::size_t>(i)); }
  [[nodiscard]] const GpuInterconnect& fabric() const { return params_.fabric; }
  [[nodiscard]] const net::Topology& topology() const { return topo_; }

  /// The event-driven row network; null unless the topology has NIC nodes
  /// (chassis_nics). Lazy so flat chassis register no quiesce hooks and
  /// acquire no tracer timelines — their observable output is unchanged.
  [[nodiscard]] net::Network* network() { return net_.get(); }
  /// The CDI host endpoint node (chassis_nics), or net::kInvalidNode.
  [[nodiscard]] net::NodeId host_node() const {
    return topo_.host_count() > 0 ? topo_.host(0) : net::kInvalidNode;
  }
  /// The NIC serving `device`'s chassis; net::kInvalidNode on flat fabrics.
  [[nodiscard]] net::NodeId nic_of(int device) const;

  /// Attach one sink to every device (chassis-wide trace).
  void set_record_sink(RecordSink* sink);

  /// Attach a fabric-transfer log: every priced transfer appends one
  /// record (in deterministic program order). Null detaches. The log must
  /// outlive the chassis' collectives.
  void set_transfer_log(std::vector<FabricTransferRecord>* log) { transfer_log_ = log; }

  /// Allreduce `bytes_per_gpu` across devices [0, participants): runs
  /// `net::allreduce_schedule` over this chassis' topology, every transfer
  /// occupying the sender's D2H and the receiver's H2D engine. The copies
  /// of phase k are named `<name>_send_p<k>` / `<name>_recv_p<k>` (k counts
  /// the steps of the enclosing sub-schedule). Resumes when the collective
  /// completes on every device. Throws rsd::Error{kInvalidArgument} when
  /// participants < 1 or exceeds size().
  sim::Task<> allreduce(net::Algorithm algorithm, Bytes bytes_per_gpu, int participants,
                        NameRef name = NameRef{"allreduce"});

 private:
  /// Routed cost of one transfer, including any OCS circuit retarget by
  /// the sending device (tracked per sender, deterministic: transfers are
  /// priced in program order on the single scheduler). Appends to the
  /// attached transfer log and reports the reconfiguration share through
  /// `reconfig` when non-null.
  SimDuration transfer_cost(int src, int dst, Bytes bytes, SimDuration* reconfig = nullptr);

  /// Launch one directed transfer and signal `wg` when it completes.
  /// Chassis-local (or flat-fabric) transfers price analytically and
  /// occupy both engines for the routed duration; cross-chassis transfers
  /// run the three-stage store-and-forward path through the Network.
  void spawn_transfer(int src, int dst, Bytes bytes, NameRef send_name, NameRef recv_name,
                      sim::WaitGroup& wg);

  /// Cross-chassis store-and-forward: sender D2H engine drains to its
  /// chassis NIC, the Network carries NIC->NIC over the row fabric, the
  /// receiver's H2D engine pulls from its NIC. Appends a transfer-log
  /// record carrying the NIC-leg window.
  sim::Task<> networked_transfer(int src, int dst, Bytes bytes, NameRef send_name,
                                 NameRef recv_name, sim::WaitGroup& wg);

  sim::Scheduler& sched_;
  ChassisParams params_;
  net::Topology topo_;
  std::unique_ptr<net::Network> net_;
  std::vector<std::unique_ptr<Device>> devices_;
  /// Per-device OCS circuit target (device index; -1 = unconfigured).
  std::vector<int> circuit_;
  std::vector<FabricTransferRecord>* transfer_log_ = nullptr;
};

}  // namespace rsd::gpu

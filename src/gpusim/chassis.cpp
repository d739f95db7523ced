#include "gpusim/chassis.hpp"

#include <string>
#include <utility>

#include "interconnect/collective.hpp"
#include "sim/sync.hpp"

namespace rsd::gpu {

namespace {

/// One directed chunk transfer: occupies the sender's D2H engine and the
/// receiver's H2D engine for the duration (both ends of a fabric DMA).
/// Names are interned once per phase by the caller, not per transfer.
sim::Task<> fabric_transfer(Device& src, Device& dst, Bytes bytes, SimDuration duration,
                            SimDuration reconfig, NameRef send_name, NameRef recv_name,
                            sim::WaitGroup& wg) {
  OpRecord send;
  send.kind = OpKind::kMemcpyD2H;
  send.name = send_name;
  send.bytes = bytes;
  send.reconfig_penalty = reconfig;  // the sender's circuit paid the retarget
  OpRecord recv;
  recv.kind = OpKind::kMemcpyH2D;
  recv.name = recv_name;
  recv.bytes = bytes;

  // Each copy books its engine from a coroutine of its own, when that
  // coroutine first runs, not inline here: events already queued at this
  // instant (other lanes' ops, other transfers' copies) then reach the
  // engines first, the order the tracked replay timings were pinned with.
  // Booking both copies at the spawn reorders them and moves the timing.
  sim::WaitGroup pair{src.scheduler()};
  pair.add(2);
  src.scheduler().spawn([](Device& d, OpRecord rec, SimDuration dur,
                           sim::WaitGroup& group) -> sim::Task<> {
    co_await d.d2h_engine().execute(rec, dur);
    if (auto* sink = d.record_sink(); sink != nullptr) sink->on_op(rec);
    group.done();
  }(src, std::move(send), duration, pair));
  src.scheduler().spawn([](Device& d, OpRecord rec, SimDuration dur,
                           sim::WaitGroup& group) -> sim::Task<> {
    co_await d.h2d_engine().execute(rec, dur);
    if (auto* sink = d.record_sink(); sink != nullptr) sink->on_op(rec);
    group.done();
  }(dst, std::move(recv), duration, pair));
  co_await pair.wait();
  wg.done();
}

}  // namespace

Chassis::Chassis(sim::Scheduler& sched, ChassisParams params)
    : sched_(sched), params_(std::move(params)) {
  RSD_ASSERT(params_.gpus >= 1);
  topo_ = net::build_fabric(net::FabricParams{
      .kind = params_.fabric_kind,
      .gpus = params_.gpus,
      .gpus_per_chassis = params_.gpus_per_chassis,
      .link_bandwidth_gib_s = params_.fabric.bandwidth_gib_s,
      .link_latency = params_.fabric.latency,
      .chassis_nics = params_.chassis_nics,
      .host_endpoint = params_.chassis_nics,
  });
  // The event-driven row network exists only when the graph has NIC nodes:
  // flat chassis must not register quiesce hooks or acquire tracer
  // timelines, or their manifests and traces would shift.
  if (topo_.nic_count() > 0) net_ = std::make_unique<net::Network>(sched_, topo_);
  circuit_.assign(static_cast<std::size_t>(params_.gpus), -1);
  devices_.reserve(static_cast<std::size_t>(params_.gpus));
  for (int i = 0; i < params_.gpus; ++i) {
    // Each device keeps a PCIe host link; the chassis fabric is used for
    // GPU<->GPU traffic only.
    devices_.push_back(std::make_unique<Device>(sched_, params_.device_params,
                                                interconnect::make_pcie_gen4_x16()));
  }
}

void Chassis::set_record_sink(RecordSink* sink) {
  for (auto& d : devices_) d->set_record_sink(sink);
}

net::NodeId Chassis::nic_of(int device) const {
  if (topo_.nic_count() == 0) return net::kInvalidNode;
  return topo_.chassis_nic(topo_.node(topo_.device(device)).chassis);
}

void Chassis::spawn_transfer(int src, int dst, Bytes bytes, NameRef send_name,
                             NameRef recv_name, sim::WaitGroup& wg) {
  if (net_ != nullptr && topo_.node(topo_.device(src)).chassis !=
                             topo_.node(topo_.device(dst)).chassis) {
    sched_.spawn(networked_transfer(src, dst, bytes, send_name, recv_name, wg));
    return;
  }
  SimDuration reconfig;
  const SimDuration per_transfer = transfer_cost(src, dst, bytes, &reconfig);
  sched_.spawn(fabric_transfer(device(src), device(dst), bytes, per_transfer, reconfig,
                               send_name, recv_name, wg));
}

sim::Task<> Chassis::networked_transfer(int src, int dst, Bytes bytes, NameRef send_name,
                                        NameRef recv_name, sim::WaitGroup& wg) {
  const net::NodeId src_node = topo_.device(src);
  const net::NodeId dst_node = topo_.device(dst);
  const net::NodeId src_nic = topo_.chassis_nic(topo_.node(src_node).chassis);
  const net::NodeId dst_nic = topo_.chassis_nic(topo_.node(dst_node).chassis);
  const SimTime started = sched_.now();

  // Stage 1: the sender's D2H engine drains the payload to its chassis NIC.
  OpRecord send;
  send.kind = OpKind::kMemcpyD2H;
  send.name = send_name;
  send.bytes = bytes;
  co_await device(src).d2h_engine().execute(send, net_->price(src_node, src_nic, bytes));
  if (auto* sink = device(src).record_sink(); sink != nullptr) sink->on_op(send);

  // Stage 2: NIC -> NIC over the row fabric — FIFO queueing, circuit
  // retargets, and the express path all apply; no engine is occupied.
  const SimTime nic_start = sched_.now();
  net::TransferStats stats;
  co_await net_->transfer(src_nic, dst_nic, bytes, &stats);
  const SimDuration nic_leg = sched_.now() - nic_start;

  // Stage 3: the receiver's H2D engine pulls the payload off its NIC.
  OpRecord recv;
  recv.kind = OpKind::kMemcpyH2D;
  recv.name = recv_name;
  recv.bytes = bytes;
  co_await device(dst).h2d_engine().execute(recv, net_->price(dst_nic, dst_node, bytes));
  if (auto* sink = device(dst).record_sink(); sink != nullptr) sink->on_op(recv);

  if (transfer_log_ != nullptr) {
    transfer_log_->push_back(FabricTransferRecord{src, dst, bytes, started,
                                                  sched_.now() - started, stats.reconfig,
                                                  nic_start, nic_leg});
  }
  wg.done();
}

SimDuration Chassis::transfer_cost(int src, int dst, Bytes bytes, SimDuration* reconfig) {
  const net::NodeId a = topo_.device(src);
  const net::NodeId b = topo_.device(dst);
  SimDuration cost = topo_.transfer_time(a, b, bytes);
  SimDuration retarget = SimDuration::zero();
  if (topo_.route(a, b).optical_hops > 0 &&
      circuit_[static_cast<std::size_t>(src)] != dst) {
    retarget = topo_.ocs_reconfigure();
    cost = cost + retarget;
    circuit_[static_cast<std::size_t>(src)] = dst;
  }
  if (reconfig != nullptr) *reconfig = retarget;
  if (transfer_log_ != nullptr) {
    transfer_log_->push_back(
        FabricTransferRecord{src, dst, bytes, sched_.now(), cost, retarget,
                             /*nic_start=*/SimTime::zero(), /*nic=*/SimDuration::zero()});
  }
  return cost;
}

sim::Task<> Chassis::allreduce(net::Algorithm algorithm, Bytes bytes_per_gpu,
                               int participants, NameRef name) {
  return net::run_schedule(
      sched_, net::allreduce_schedule(algorithm, topo_, participants, bytes_per_gpu),
      // Copy names are interned once per step index, not per transfer.
      [this, name, names = std::vector<std::pair<NameRef, NameRef>>{}](
          const net::Transfer& t, int step, sim::WaitGroup& wg) mutable {
        while (static_cast<int>(names.size()) <= step) {
          const std::string tag = "_p" + std::to_string(names.size());
          names.emplace_back(NameRef{name.str() + "_send" + tag},
                             NameRef{name.str() + "_recv" + tag});
        }
        const auto& [send_name, recv_name] = names[static_cast<std::size_t>(step)];
        spawn_transfer(t.src, t.dst, t.bytes, send_name, recv_name, wg);
      });
}

}  // namespace rsd::gpu

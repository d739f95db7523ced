#include "wl/replay.hpp"

#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "core/error.hpp"
#include "interconnect/slack.hpp"
#include "sim/scheduler.hpp"
#include "sim/sync.hpp"
#include "sim/task.hpp"

namespace rsd::wl {

namespace {

/// Shared per-run wiring handed to every lane coroutine.
struct RunWiring {
  gpu::Chassis* chassis = nullptr;  ///< Null on single-device nodes.
  interconnect::SlackInjector* slack = nullptr;
  gpu::CommandPath path;
  gpu::SlackPosition slack_position = gpu::SlackPosition::kAfterCall;
  bool gate = false;
  /// Multi-chassis nodes: bind each lane's Context onto the chassis' row
  /// network (host endpoint <-> lane device's chassis NIC <-> device).
  bool bind_transport = false;
};

/// One lane: allocate buffers, optionally rendezvous at the start gate,
/// interpret the op stream, free buffers, signal completion. The switch
/// dispatch adds no awaits of its own, so the schedule is identical to a
/// handwritten coroutine issuing the same calls.
sim::Task<> run_lane(const Lane& lane, gpu::Device& device, const RunWiring& wiring,
                     sim::Barrier& barrier, sim::WaitGroup& wg, sim::WaitGroup& ready,
                     sim::Event& start_gate) {
  gpu::Context ctx{device, lane.context_id, wiring.slack, lane.process_id, wiring.path,
                   wiring.slack_position};
  if (wiring.bind_transport) {
    gpu::Chassis& chassis = *wiring.chassis;
    ctx.bind_transport(gpu::TransportBinding{
        chassis.network(), chassis.host_node(), chassis.nic_of(lane.device),
        chassis.topology().device(lane.device)});
  }

  std::vector<gpu::DeviceBuffer> buffers;
  buffers.reserve(lane.buffers.size());
  for (const Bytes bytes : lane.buffers) buffers.push_back(co_await ctx.dmalloc(bytes));

  if (wiring.gate) {
    ready.done();
    co_await start_gate.wait();
  }

  const auto buffer_of = [&buffers](const Op& op) {
    return op.buffer >= 0 ? buffers[static_cast<std::size_t>(op.buffer)]
                          : gpu::DeviceBuffer{0, op.bytes};
  };

  std::vector<std::int64_t> trips;  ///< Remaining iterations per open loop.
  std::size_t pc = 0;
  while (pc < lane.ops.size()) {
    const Op& op = lane.ops[pc];
    switch (op.code) {
      case OpCode::kKernel:
        co_await ctx.launch(op.name, op.dur);
        break;
      case OpCode::kKernelSync:
        co_await ctx.launch_sync(op.name, op.dur);
        break;
      case OpCode::kH2D:
        co_await ctx.memcpy_h2d(buffer_of(op), op.name);
        break;
      case OpCode::kD2H:
        co_await ctx.memcpy_d2h(buffer_of(op), op.name);
        break;
      case OpCode::kH2DAsync:
        co_await ctx.memcpy_h2d_async(buffer_of(op), op.name);
        break;
      case OpCode::kD2HAsync:
        co_await ctx.memcpy_d2h_async(buffer_of(op), op.name);
        break;
      case OpCode::kSync:
        co_await ctx.synchronize();
        break;
      case OpCode::kBarrier:
        co_await barrier.arrive_and_wait();
        break;
      case OpCode::kCpu:
        co_await sim::delay(op.dur);
        break;
      case OpCode::kAllReduce:
        if (wiring.chassis == nullptr) {
          throw Error{ErrorCode::kInvalidState,
                      "wl::ReplayEngine: allreduce op on a single-device node "
                      "(set NodeParams::chassis_gpus)"};
        }
        co_await wiring.chassis->allreduce(net::Algorithm::kRing, op.bytes,
                                           static_cast<int>(op.count), op.name);
        break;
      case OpCode::kLoopBegin:
        if (op.count > 0) {
          trips.push_back(op.count);
        } else {
          pc = static_cast<std::size_t>(op.match);  // skip empty loop body
        }
        break;
      case OpCode::kLoopEnd:
        if (--trips.back() > 0) {
          pc = static_cast<std::size_t>(op.match);  // back to first body op
        } else {
          trips.pop_back();
        }
        break;
    }
    ++pc;
  }

  for (gpu::DeviceBuffer& buffer : buffers) co_await ctx.dfree(buffer);
  wg.done();
}

/// Gated timing (the proxy's protocol): wait for every lane to finish its
/// allocations, open the gate, time until all lanes complete.
sim::Task<> gated_monitor(sim::Scheduler& sched, sim::WaitGroup& wg, sim::WaitGroup& ready,
                          sim::Event& start_gate, SimTime& t0, SimTime& t1) {
  co_await ready.wait();
  t0 = sched.now();
  start_gate.trigger();
  co_await wg.wait();
  t1 = sched.now();
}

sim::Task<> plain_monitor(sim::Scheduler& sched, sim::WaitGroup& wg, SimTime& t1) {
  co_await wg.wait();
  t1 = sched.now();
}

}  // namespace

ReplayResult ReplayEngine::run(const Program& program, const ReplayOptions& options) const {
  // An allreduce cannot span more devices than the node's machine model
  // has (a single-device node counts as one).
  program.validate(node_.chassis_gpus > 0 ? node_.chassis_gpus : 1);

  sim::Scheduler sched;
  std::optional<gpu::Device> device;
  std::optional<gpu::Chassis> chassis;
  if (node_.chassis_gpus > 0) {
    gpu::ChassisParams params;
    params.gpus = node_.chassis_gpus;
    params.fabric = node_.fabric;
    params.device_params = node_.device_params;
    params.fabric_kind = node_.fabric_kind;
    if (node_.gpus_per_chassis > 0) {
      params.gpus_per_chassis = node_.gpus_per_chassis;
      params.chassis_nics = true;
    }
    chassis.emplace(sched, std::move(params));
  } else {
    device.emplace(sched, node_.device_params, node_.link);
  }

  trace::TraceRecorder recorder;
  std::vector<gpu::FabricTransferRecord> transfers;
  if (options.capture_trace) {
    if (chassis) {
      chassis->set_record_sink(&recorder);
      chassis->set_transfer_log(&transfers);
    } else {
      device->set_record_sink(&recorder);
    }
  }

  interconnect::SlackInjector slack{options.slack, options.host_noise_sigma, options.seed};
  RunWiring wiring;
  wiring.chassis = chassis ? &*chassis : nullptr;
  wiring.slack = options.inject_slack ? &slack : nullptr;
  wiring.path = options.command_path;
  wiring.slack_position = options.slack_position;
  wiring.gate = program.gate;
  wiring.bind_transport = chassis && chassis->network() != nullptr &&
                          chassis->host_node() != net::kInvalidNode;

  const int lanes = static_cast<int>(program.lanes.size());
  sim::Barrier barrier{sched, lanes > 0 ? lanes : 1};
  sim::WaitGroup wg{sched};
  sim::WaitGroup ready{sched};
  sim::Event start_gate{sched};
  wg.add(lanes);
  ready.add(lanes);

  for (const Lane& lane : program.lanes) {
    if (chassis && (lane.device < 0 || lane.device >= chassis->size())) {
      throw Error{ErrorCode::kInvalidArgument,
                  "wl::ReplayEngine: lane device index out of range"};
    }
    gpu::Device& dev = chassis ? chassis->device(lane.device) : *device;
    sched.spawn(run_lane(lane, dev, wiring, barrier, wg, ready, start_gate));
  }

  SimTime t0{};
  SimTime t1{};
  if (lanes > 0) {
    if (program.gate) {
      sched.spawn(gated_monitor(sched, wg, ready, start_gate, t0, t1));
    } else {
      sched.spawn(plain_monitor(sched, wg, t1));
    }
  }

  sched.run();
  // The program is caller-built, so a deadlock is its fault, not ours:
  // lanes that call barrier() different numbers of times never finish.
  if (wg.count() > 0) {
    throw Error{ErrorCode::kInvalidArgument,
                "wl::ReplayEngine: " + std::to_string(wg.count()) + " of " +
                    std::to_string(lanes) +
                    " lanes never finished (deadlock: do all lanes call barrier() the same "
                    "number of times?)"};
  }
  RSD_ASSERT(sched.unfinished_count() == 0);

  ReplayResult result;
  result.runtime = t1 - SimTime::zero();
  result.timed_runtime = t1 - t0;
  result.calls_delayed = slack.calls_delayed();
  result.total_injected = slack.total_injected();
  if (options.capture_trace) {
    result.trace = std::move(recorder.trace());
    result.transfers = std::move(transfers);
  }
  return result;
}

}  // namespace rsd::wl

// CUDA-like host front-end to the simulated device.
//
// One `Context` per simulated host thread. The call surface mirrors the
// subset of the CUDA runtime the paper's proxy exercises:
//
//   dmalloc / dfree            cudaMalloc / cudaFree
//   memcpy_h2d / memcpy_d2h    cudaMemcpy (blocking)
//   launch                     kernel<<<...>>> (asynchronous)
//   synchronize                cudaDeviceSynchronize
//
// Each call costs a small host-side submission time (the CPU's kernel-push
// rate is a first-class quantity in the paper's CosmoFlow analysis) and, when
// a SlackInjector is attached, is followed by the injected slack — exactly
// the paper's sleep-after-every-CUDA-call emulation of row-scale CDI.
//
// Ops issued through one Context execute in order (one CUDA stream);
// separate Contexts interleave freely on the device engines.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <utility>

#include "core/error.hpp"
#include "core/units.hpp"
#include "gpusim/device.hpp"
#include "gpusim/records.hpp"
#include "interconnect/link.hpp"
#include "interconnect/slack.hpp"
#include "interconnect/transport.hpp"
#include "sim/scheduler.hpp"
#include "sim/sync.hpp"
#include "sim/task.hpp"

namespace rsd::gpu {

/// Host-side cost of pushing one command to the driver/device queue.
inline constexpr SimDuration kApiSubmitCost = duration::microseconds(1.5);

/// Default op names, interned once at static initialisation so call sites
/// that rely on the defaults pay nothing per call.
inline const NameRef kMemcpyH2DName{"memcpy_h2d"};
inline const NameRef kMemcpyD2HName{"memcpy_d2h"};

/// Command-path latencies for a *native* disaggregated deployment: every
/// command crosses the network to reach the device, and every completion
/// notification crosses it back. A traditional PCIe-local device uses the
/// zero default. The paper emulates this path with host-side sleeps; the
/// native mode exists to validate that emulation (see
/// bench_extension_native_cdi).
struct CommandPath {
  SimDuration submit_latency = SimDuration::zero();      ///< host -> device
  SimDuration completion_latency = SimDuration::zero();  ///< device -> host

  [[nodiscard]] static CommandPath local() { return {}; }
  [[nodiscard]] static CommandPath over_network(const interconnect::CdiNetworkParams& net) {
    return CommandPath{net.slack(), net.slack()};
  }
  [[nodiscard]] SimDuration round_trip() const { return submit_latency + completion_latency; }
};

/// A device memory allocation owned by a Context (RAII-style via dfree).
struct DeviceBuffer {
  MemoryPool::Handle handle = 0;
  Bytes bytes = 0;
};

/// Routes a context's host-side traffic over the row-scale machine model
/// instead of the flat per-device link. When bound, memcpy payloads cross
/// `transport` between the CDI `host` endpoint and the device's chassis
/// NIC (`edge`) — FIFO link contention, OCS circuits, and the express fast
/// path all apply — and the engine service time becomes the NIC->GPU last
/// hop. Injected slack is realised as a zero-byte host->GPU crossing
/// topped up to the nominal value: an uncontended crossing costs exactly
/// the path latency, so Equation 1 accounting is unchanged, while fabric
/// congestion lengthens the crossing and feeds the Eq 2-3 penalty bounds.
struct TransportBinding {
  net::Transport* transport = nullptr;
  net::NodeId host = net::kInvalidNode;  ///< CDI host endpoint node.
  net::NodeId edge = net::kInvalidNode;  ///< Chassis NIC serving the device.
  net::NodeId gpu = net::kInvalidNode;   ///< The device's graph node.
  [[nodiscard]] bool bound() const { return transport != nullptr; }
};

/// Where injected slack lands relative to the API call. The paper's proxy
/// sleeps *after* each call (Section III-C); its LD_PRELOAD alternative
/// would delay *before* calling the target function (Section III-B). Both
/// are provided so the agreement the paper reports can be reproduced.
enum class SlackPosition { kAfterCall, kBeforeCall };

class Context {
 public:
  /// `slack` may be null (no injection). `id` tags records; `process_id`
  /// identifies the owning OS process — OpenMP threads of one application
  /// share a process_id (one CUDA context), MPI ranks get distinct ones.
  Context(Device& device, int id = 0, interconnect::SlackInjector* slack = nullptr,
          int process_id = 0, CommandPath path = CommandPath::local(),
          SlackPosition slack_position = SlackPosition::kAfterCall)
      : device_(device), sched_(device.scheduler()), id_(id), process_id_(process_id),
        slack_(slack), path_(path), slack_position_(slack_position) {}

  Context(const Context&) = delete;
  Context& operator=(const Context&) = delete;

  [[nodiscard]] Device& device() { return device_; }
  [[nodiscard]] int id() const { return id_; }
  [[nodiscard]] int process_id() const { return process_id_; }

  /// Attach (or detach, with a default-constructed binding) the machine
  /// model. Unbound contexts price host<->device traffic off the device's
  /// own link, exactly as before the transport seam existed.
  void bind_transport(const TransportBinding& binding) { binding_ = binding; }
  [[nodiscard]] const TransportBinding& transport_binding() const { return binding_; }

  /// Allocate device memory; throws rsd::Error{kOutOfMemory} when full.
  /// Host-side cost only — allocation itself is immediate, like cudaMalloc
  /// from a pre-grown heap.
  [[nodiscard]] sim::Task<DeviceBuffer> dmalloc(Bytes bytes);

  sim::Task<> dfree(DeviceBuffer& buffer);

  /// Blocking host-to-device copy (cudaMemcpy H2D): resumes when the
  /// transfer has completed on the device. Names are interned `NameRef`s:
  /// hot loops hoist the ref once and pass it by value (no per-op string).
  sim::Task<> memcpy_h2d(const DeviceBuffer& dst, NameRef name = kMemcpyH2DName);

  /// Blocking device-to-host copy (cudaMemcpy D2H).
  sim::Task<> memcpy_d2h(const DeviceBuffer& src, NameRef name = kMemcpyD2HName);

  /// Asynchronous copies (cudaMemcpyAsync): resume after submission and
  /// return the op's completion event. Combined with a second Context as
  /// the "other stream" and stream_wait(), these enable the double-buffered
  /// pipelines the paper sets aside when it chooses the synchronous
  /// pessimistic case (Section III-B).
  sim::Task<std::shared_ptr<sim::Event>> memcpy_h2d_async(const DeviceBuffer& dst,
                                                          NameRef name = kMemcpyH2DName);
  sim::Task<std::shared_ptr<sim::Event>> memcpy_d2h_async(const DeviceBuffer& src,
                                                          NameRef name = kMemcpyD2HName);

  /// cudaStreamWaitEvent: the next op submitted through this context will
  /// not start on the device before `event` has triggered. Host-side cost
  /// only; does not block the host.
  sim::Task<> stream_wait(std::shared_ptr<sim::Event> event);

  /// Completion event of the most recently submitted op (cudaEventRecord).
  [[nodiscard]] std::shared_ptr<sim::Event> record_event() const { return tail_; }

  /// Asynchronous kernel launch: resumes after submission; the kernel
  /// executes on the device in stream order.
  sim::Task<> launch(NameRef name, SimDuration kernel_duration);

  /// Synchronous kernel launch: one API call that resumes only when the
  /// kernel has completed. The paper's proxy runs its GPU-side operations
  /// synchronously "to capture the pessimistic case" (Section III-B).
  sim::Task<> launch_sync(NameRef name, SimDuration kernel_duration);

  /// Convenience: launch an n x n single-precision matmul kernel, with the
  /// duration drawn from the device's cost model. Interns the name per call
  /// — loops should hoist a NameRef and call launch() directly.
  sim::Task<> launch_matmul(std::int64_t n) {
    return launch(NameRef{"sgemm_" + std::to_string(n)}, device_.matmul_kernel_duration(n));
  }

  /// Block until every op submitted through this context has completed
  /// (cudaDeviceSynchronize scoped to this stream).
  sim::Task<> synchronize();

  /// Number of API calls made through this context (memcpy/launch/sync —
  /// the calls the paper injects slack after; dmalloc/dfree excluded, as
  /// the proxy's allocation happens outside the timed loop).
  [[nodiscard]] std::int64_t api_calls() const { return api_calls_; }

 private:
  /// Enqueue a device op in stream order. Returns the completion event.
  /// The command spends `path_.submit_latency` in flight before it can
  /// start (overlapping with earlier ops' execution).
  std::shared_ptr<sim::Event> submit_op(OpKind kind, NameRef name, Bytes bytes,
                                        SimDuration service);

  /// The OpRecord rides by value in run_op's (arena-recycled) coroutine
  /// frame — no shared_ptr, no separate heap object per op.
  static sim::Task<> run_op(Device& device, std::shared_ptr<sim::Event> prev,
                            std::shared_ptr<sim::Event> dep,
                            std::shared_ptr<sim::Event> done,
                            OpRecord rec, SimDuration service,
                            SimDuration command_travel);

  /// Record the API call; returns the injected slack to sleep after it
  /// (kAfterCall position), zero when none. The caller co_awaits
  /// injected_sleep only for a positive slack, so a call without slack
  /// creates no coroutine frame for it.
  [[nodiscard]] SimDuration finish_api(NameRef name, SimTime start);

  /// The injected slack to sleep at call entry (kBeforeCall position),
  /// zero when none.
  [[nodiscard]] SimDuration slack_before();

  /// Realise one injected sleep. Unbound: a plain delay of `slack`. Bound:
  /// a zero-byte host->GPU crossing of the row network topped up to the
  /// nominal value, so contention overshoots and nothing else changes.
  sim::Task<> injected_sleep(SimDuration slack);

  Device& device_;
  sim::Scheduler& sched_;
  int id_;
  int process_id_;
  interconnect::SlackInjector* slack_;
  CommandPath path_;
  SlackPosition slack_position_;
  TransportBinding binding_;
  std::shared_ptr<sim::Event> tail_;  ///< Completion of the last submitted op.
  std::shared_ptr<sim::Event> pending_dep_;  ///< From stream_wait().
  std::int64_t api_calls_ = 0;
};

}  // namespace rsd::gpu

#include "gpusim/context.hpp"

#include "obs/tracer.hpp"

namespace rsd::gpu {
namespace {

// Host API call names, interned once per process instead of constructing a
// std::string per call (several exceed SSO capacity).
const NameRef kApiMemcpyH2D{"cudaMemcpyH2D"};
const NameRef kApiMemcpyD2H{"cudaMemcpyD2H"};
const NameRef kApiLaunchKernel{"cudaLaunchKernel"};
const NameRef kApiLaunchKernelSync{"cudaLaunchKernelSync"};
const NameRef kApiMemcpyAsyncH2D{"cudaMemcpyAsyncH2D"};
const NameRef kApiMemcpyAsyncD2H{"cudaMemcpyAsyncD2H"};
const NameRef kApiStreamWaitEvent{"cudaStreamWaitEvent"};
const NameRef kApiDeviceSynchronize{"cudaDeviceSynchronize"};

}  // namespace

sim::Task<DeviceBuffer> Context::dmalloc(Bytes bytes) {
  co_await sim::delay(kApiSubmitCost);
  const auto handle = device_.memory().allocate(bytes);
  co_return DeviceBuffer{handle, bytes};
}

sim::Task<> Context::dfree(DeviceBuffer& buffer) {
  co_await sim::delay(kApiSubmitCost);
  if (buffer.handle != 0) {
    device_.memory().free(buffer.handle);
    buffer = DeviceBuffer{};
  }
}

std::shared_ptr<sim::Event> Context::submit_op(OpKind kind, NameRef name, Bytes bytes,
                                               SimDuration service) {
  OpRecord rec;
  rec.kind = kind;
  rec.name = name;
  rec.context_id = id_;
  rec.process_id = process_id_;
  rec.bytes = bytes;
  rec.submit = sched_.now();

  auto done = sim::make_event(sched_);
  sched_.spawn(run_op(device_, tail_, std::move(pending_dep_), done, rec, service,
                      path_.submit_latency));
  tail_ = done;
  return done;
}

sim::Task<> Context::run_op(Device& device, std::shared_ptr<sim::Event> prev,
                            std::shared_ptr<sim::Event> dep, std::shared_ptr<sim::Event> done,
                            OpRecord rec, SimDuration service,
                            SimDuration command_travel) {
  // Command flight overlaps with earlier ops' execution (in-order arrival
  // is preserved because every command of this stream has equal travel).
  if (command_travel > SimDuration::zero()) co_await sim::delay(command_travel);
  if (prev) co_await prev->wait();
  if (dep) co_await dep->wait();
  co_await device.engine_for(rec.kind).execute(rec, service);
  if (auto* sink = device.record_sink(); sink != nullptr) sink->on_op(rec);
  done->trigger();
}

sim::Task<> Context::injected_sleep(SimDuration slack) {
  if (!binding_.bound()) {
    co_await sim::delay(slack);
    co_return;
  }
  // The injected sleep stands in for the command/ack round trips of a
  // row-scale CDI deployment. Route a zero-byte message through the
  // machine model — so FIFO queues and OCS circuit state see it — then
  // top up to the nominal slack: uncontended, the crossing costs exactly
  // the path latency and the call is delayed by `slack` as Equation 1
  // assumes; under congestion the crossing runs long and the overshoot
  // *is* the fabric-contention penalty.
  const SimTime t0 = sched_.now();
  co_await binding_.transport->transfer(binding_.host, binding_.gpu, 0, nullptr);
  const SimDuration crossed = sched_.now() - t0;
  if (crossed < slack) co_await sim::delay(slack - crossed);
}

SimDuration Context::slack_before() {
  if (slack_ == nullptr || slack_position_ != SlackPosition::kBeforeCall) {
    return SimDuration::zero();
  }
  const SimDuration slack = slack_->on_api_call();
  if (const std::int32_t trace_id = device_.trace_id();
      trace_id >= 0 && slack > SimDuration::zero()) {
    obs::Tracer::instance().complete_sim(trace_id, obs::kTrackSlack, sched_.now().ns(),
                                         slack.ns(), "slack", "slack_before",
                                         {obs::Arg::n("context", id_)});
  }
  return slack;
}

SimDuration Context::finish_api(NameRef name, SimTime start) {
  ApiRecord api;
  api.name = name;
  api.context_id = id_;
  api.start = start;
  api.end = sched_.now();
  ++api_calls_;
  SimDuration slack = SimDuration::zero();
  if (slack_ != nullptr && slack_position_ == SlackPosition::kAfterCall) {
    slack = slack_->on_api_call();
  }
  api.slack_after = slack;
  if (auto* sink = device_.record_sink(); sink != nullptr) sink->on_api(api);
  if (const std::int32_t trace_id = device_.trace_id(); trace_id >= 0) {
    auto& tracer = obs::Tracer::instance();
    tracer.complete_sim(trace_id, obs::kTrackApiBase + id_, start.ns(), (api.end - start).ns(),
                        "gpu.api", name.str());
    if (slack > SimDuration::zero()) {
      tracer.complete_sim(trace_id, obs::kTrackSlack, api.end.ns(), slack.ns(), "slack",
                          "slack", {obs::Arg::n("context", id_)});
    }
  }
  return slack;
}

sim::Task<> Context::memcpy_h2d(const DeviceBuffer& dst, NameRef name) {
  if (const SimDuration s = slack_before(); s > SimDuration::zero()) co_await injected_sleep(s);
  const SimTime start = sched_.now();
  co_await sim::delay(kApiSubmitCost);
  SimDuration service;
  if (binding_.bound()) {
    // The payload crosses the row network to the chassis edge first (link
    // contention applies); the NIC->GPU last hop is the engine service.
    co_await binding_.transport->transfer(binding_.host, binding_.edge, dst.bytes, nullptr);
    service = binding_.transport->price(binding_.edge, binding_.gpu, dst.bytes);
  } else {
    service = interconnect::transfer_time(device_.link(), dst.bytes);
  }
  const auto done = submit_op(OpKind::kMemcpyH2D, name, dst.bytes, service);
  co_await done->wait();
  if (path_.completion_latency > SimDuration::zero()) {
    co_await sim::delay(path_.completion_latency);
  }
  const SimDuration after = finish_api(kApiMemcpyH2D, start);
  if (after > SimDuration::zero()) co_await injected_sleep(after);
}

sim::Task<> Context::memcpy_d2h(const DeviceBuffer& src, NameRef name) {
  if (const SimDuration s = slack_before(); s > SimDuration::zero()) co_await injected_sleep(s);
  const SimTime start = sched_.now();
  co_await sim::delay(kApiSubmitCost);
  const SimDuration service = binding_.bound()
                                  ? binding_.transport->price(binding_.gpu, binding_.edge,
                                                              src.bytes)
                                  : interconnect::transfer_time(device_.link(), src.bytes);
  const auto done = submit_op(OpKind::kMemcpyD2H, name, src.bytes, service);
  co_await done->wait();
  if (binding_.bound()) {
    // Engine done = payload at the chassis edge; it still has to cross the
    // row network back to the host before the blocking call returns.
    co_await binding_.transport->transfer(binding_.edge, binding_.host, src.bytes, nullptr);
  }
  if (path_.completion_latency > SimDuration::zero()) {
    co_await sim::delay(path_.completion_latency);
  }
  const SimDuration after = finish_api(kApiMemcpyD2H, start);
  if (after > SimDuration::zero()) co_await injected_sleep(after);
}

sim::Task<> Context::launch(NameRef name, SimDuration kernel_duration) {
  if (const SimDuration s = slack_before(); s > SimDuration::zero()) co_await injected_sleep(s);
  const SimTime start = sched_.now();
  co_await sim::delay(kApiSubmitCost);
  submit_op(OpKind::kKernel, name, 0, kernel_duration);
  const SimDuration after = finish_api(kApiLaunchKernel, start);
  if (after > SimDuration::zero()) co_await injected_sleep(after);
}

sim::Task<std::shared_ptr<sim::Event>> Context::memcpy_h2d_async(const DeviceBuffer& dst,
                                                                 NameRef name) {
  if (const SimDuration s = slack_before(); s > SimDuration::zero()) co_await injected_sleep(s);
  const SimTime start = sched_.now();
  co_await sim::delay(kApiSubmitCost);
  SimDuration service;
  if (binding_.bound()) {
    // Source data is host-side: the submitting thread stages it across the
    // row network before the device-side copy can be queued (the same
    // pageable-memory behaviour real async copies exhibit).
    co_await binding_.transport->transfer(binding_.host, binding_.edge, dst.bytes, nullptr);
    service = binding_.transport->price(binding_.edge, binding_.gpu, dst.bytes);
  } else {
    service = interconnect::transfer_time(device_.link(), dst.bytes);
  }
  auto done = submit_op(OpKind::kMemcpyH2D, name, dst.bytes, service);
  const SimDuration after = finish_api(kApiMemcpyAsyncH2D, start);
  if (after > SimDuration::zero()) co_await injected_sleep(after);
  co_return done;
}

sim::Task<std::shared_ptr<sim::Event>> Context::memcpy_d2h_async(const DeviceBuffer& src,
                                                                 NameRef name) {
  if (const SimDuration s = slack_before(); s > SimDuration::zero()) co_await injected_sleep(s);
  const SimTime start = sched_.now();
  co_await sim::delay(kApiSubmitCost);
  const SimDuration service = binding_.bound()
                                  ? binding_.transport->price(binding_.gpu, binding_.edge,
                                                              src.bytes)
                                  : interconnect::transfer_time(device_.link(), src.bytes);
  auto done = submit_op(OpKind::kMemcpyD2H, name, src.bytes, service);
  if (binding_.bound()) {
    // The returned event fires when the payload reaches the *host*, which
    // is one row-network crossing after the device engine finishes. The
    // binding rides by value so the tail task outlives this context.
    auto arrived = sim::make_event(sched_);
    sched_.spawn([](TransportBinding binding, std::shared_ptr<sim::Event> dev_done,
                    Bytes bytes, std::shared_ptr<sim::Event> evt) -> sim::Task<> {
      co_await dev_done->wait();
      co_await binding.transport->transfer(binding.edge, binding.host, bytes, nullptr);
      evt->trigger();
    }(binding_, done, src.bytes, arrived));
    done = std::move(arrived);
  }
  const SimDuration after = finish_api(kApiMemcpyAsyncD2H, start);
  if (after > SimDuration::zero()) co_await injected_sleep(after);
  co_return done;
}

sim::Task<> Context::stream_wait(std::shared_ptr<sim::Event> event) {
  if (const SimDuration s = slack_before(); s > SimDuration::zero()) co_await injected_sleep(s);
  const SimTime start = sched_.now();
  co_await sim::delay(kApiSubmitCost);
  pending_dep_ = std::move(event);
  const SimDuration after = finish_api(kApiStreamWaitEvent, start);
  if (after > SimDuration::zero()) co_await injected_sleep(after);
}

sim::Task<> Context::launch_sync(NameRef name, SimDuration kernel_duration) {
  if (const SimDuration s = slack_before(); s > SimDuration::zero()) co_await injected_sleep(s);
  const SimTime start = sched_.now();
  co_await sim::delay(kApiSubmitCost);
  const auto done = submit_op(OpKind::kKernel, name, 0, kernel_duration);
  co_await done->wait();
  if (path_.completion_latency > SimDuration::zero()) {
    co_await sim::delay(path_.completion_latency);
  }
  const SimDuration after = finish_api(kApiLaunchKernelSync, start);
  if (after > SimDuration::zero()) co_await injected_sleep(after);
}

sim::Task<> Context::synchronize() {
  if (const SimDuration s = slack_before(); s > SimDuration::zero()) co_await injected_sleep(s);
  const SimTime start = sched_.now();
  co_await sim::delay(kApiSubmitCost);
  if (tail_) co_await tail_->wait();
  if (path_.completion_latency > SimDuration::zero()) {
    co_await sim::delay(path_.completion_latency);
  }
  const SimDuration after = finish_api(kApiDeviceSynchronize, start);
  if (after > SimDuration::zero()) co_await injected_sleep(after);
}

}  // namespace rsd::gpu

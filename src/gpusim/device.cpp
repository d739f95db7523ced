#include "gpusim/device.hpp"

#include <algorithm>
#include <utility>

#include "obs/tracer.hpp"

namespace rsd::gpu {

MemoryPool::Handle MemoryPool::allocate(Bytes bytes) {
  if (bytes == 0) throw Error{ErrorCode::kInvalidArgument, "zero-byte device allocation"};
  if (used_ + bytes > capacity_) {
    throw Error{ErrorCode::kOutOfMemory,
                "device OOM: requested " + format_bytes(bytes) + ", used " + format_bytes(used_) +
                    " of " + format_bytes(capacity_)};
  }
  used_ += bytes;
  peak_ = std::max(peak_, used_);
  std::uint32_t idx;
  if (!free_slots_.empty()) {
    idx = free_slots_.back();
    free_slots_.pop_back();
    sizes_[idx] = bytes;
  } else {
    idx = static_cast<std::uint32_t>(sizes_.size());
    sizes_.push_back(bytes);
  }
  return static_cast<Handle>(idx) + 1;
}

void MemoryPool::free(Handle handle) {
  const std::size_t idx = static_cast<std::size_t>(handle) - 1;
  if (handle == 0 || idx >= sizes_.size() || sizes_[idx] == 0) {
    throw Error{ErrorCode::kNotFound, "free of unknown device allocation"};
  }
  used_ -= sizes_[idx];
  sizes_[idx] = 0;
  free_slots_.push_back(static_cast<std::uint32_t>(idx));
}

SimDuration Engine::enter_service(OpRecord& rec, bool exposed) {
  const SimDuration wake = device_.begin_op();
  SimDuration switch_cost = SimDuration::zero();
  if (charges_switch_ && last_process_ >= 0 && last_process_ != rec.process_id) {
    switch_cost = device_.params().process_switch;
  }
  last_process_ = rec.process_id;
  rec.exposed_overhead = exposed ? setup_ : SimDuration::zero();
  rec.wake_penalty = wake;
  rec.switch_penalty = switch_cost;
  return rec.exposed_overhead + wake + switch_cost;
}

void Engine::account(const OpRecord& rec, bool exposed, SimTime arrival) {
  busy_time_ += rec.end - rec.start;
  ++ops_;
  if (exposed) {
    ++exposed_count_;
    exposed_total_ += setup_;
  }
  const std::int32_t trace_id = device_.trace_id();
  if (trace_id < 0) return;
  auto& tracer = obs::Tracer::instance();
  std::vector<obs::Arg> args;
  // submit/context ride along so trace::from_timeline can rebuild the
  // full OpRecord (ns values < 2^53 are exact in a double).
  args.push_back(obs::Arg::n("submit_ns", static_cast<double>(rec.submit.ns())));
  args.push_back(obs::Arg::n("context", static_cast<double>(rec.context_id)));
  if (rec.bytes > 0) args.push_back(obs::Arg::n("bytes", static_cast<double>(rec.bytes)));
  if (exposed) args.push_back(obs::Arg::n("exposed_us", setup_.seconds() * 1e6));
  if (rec.wake_penalty > SimDuration::zero()) {
    args.push_back(obs::Arg::n("wake_us", rec.wake_penalty.seconds() * 1e6));
  }
  if (rec.switch_penalty > SimDuration::zero()) {
    args.push_back(obs::Arg::n("switch_us", rec.switch_penalty.seconds() * 1e6));
  }
  tracer.complete_sim(trace_id, track_, rec.start.ns(), (rec.end - rec.start).ns(), "gpu",
                      rec.name.str(), std::move(args));
  if (exposed) {
    tracer.instant_sim(trace_id, track_, arrival.ns(), "gpu", "exposed_launch",
                       {obs::Arg::n("ns", static_cast<double>(setup_.ns()))});
  }
  if (rec.wake_penalty > SimDuration::zero()) {
    tracer.instant_sim(trace_id, track_, rec.start.ns(), "gpu", "wake_penalty",
                       {obs::Arg::n("ns", static_cast<double>(rec.wake_penalty.ns()))});
  }
}

std::int64_t Engine::arrive(SimTime now) {
  settle_bookings(now);
  const auto ahead = queued_ + static_cast<std::int64_t>(booked_.size());
  queue_depth_.observe(ahead);
  if (const std::int32_t trace_id = device_.trace_id(); trace_id >= 0) {
    for (std::size_t i = 0; i < booked_.size(); ++i) ++booked_[i].behind;
    obs::Tracer::instance().counter_sim(trace_id, track_, now.ns(), "gpu", name_ + ".queue",
                                        static_cast<double>(ahead + 1));
  }
  return ahead;
}

void Engine::settle_bookings(SimTime now) {
  while (!booked_.empty() && booked_[0].end <= now) {
    const Booking done = booked_.pop();
    if (const std::int32_t trace_id = device_.trace_id(); trace_id >= 0) {
      obs::Tracer::instance().counter_sim(trace_id, track_, done.end.ns(), "gpu",
                                          name_ + ".queue", static_cast<double>(done.behind));
    }
  }
}

sim::Task<> Engine::execute(OpRecord& rec, SimDuration service) {
  const SimTime arrival = sched_.now();
  // Pipelining: the setup overhead is exposed only when the engine had no
  // work at arrival (nothing to hide it behind). Each outstanding booking
  // is work: it counts as one queued op.
  const bool exposed = arrive(arrival) == 0;
  ++queued_;
  co_await server_.acquire();
  sim::SemaphoreGuard guard{server_};
  // Bookings hold the engine by timestamp, not by the permit: wait them
  // out while *holding* the permit, so later arrivals queue FIFO behind
  // this op exactly as they would behind a scheduled holder.
  if (busy_until() > sched_.now()) co_await sim::delay(busy_until() - sched_.now());

  // `start`/`end` bracket the op's *execution*, as a profiler reports it;
  // setup, wake, and context-switch costs show up as queue delay instead.
  co_await sim::delay(enter_service(rec, exposed));
  rec.start = sched_.now();
  co_await sim::delay(service);
  rec.end = sched_.now();
  device_.end_op();
  --queued_;
  account(rec, exposed, arrival);
  if (const std::int32_t trace_id = device_.trace_id(); trace_id >= 0) {
    obs::Tracer::instance().counter_sim(trace_id, track_, rec.end.ns(), "gpu",
                                        name_ + ".queue", static_cast<double>(queued_));
  }
}

bool Engine::try_book(OpRecord& rec, SimDuration service) {
  if (queued_ > 0) return false;
  const SimTime now = sched_.now();
  const bool exposed = arrive(now) == 0;
  // Behind a booking the op starts when the last one ends: its setup hides
  // behind that work, and the booking keeps the device busy until then, so
  // enter_service charges no wake (W(0) = 0 on the scheduled path).
  const SimTime from = exposed ? now : busy_until();
  rec.start = from + enter_service(rec, exposed);
  rec.end = rec.start + service;
  booked_.push(Booking{rec.end});
  device_.book_end(rec.end);
  account(rec, exposed, now);
  return true;
}

Device::Device(sim::Scheduler& sched, DeviceParams params, interconnect::Link link)
    : sched_(sched),
      params_(std::move(params)),
      link_(std::move(link)),
      memory_(params_.memory_capacity),
      compute_(sched, *this, "compute", obs::kTrackCompute, params_.kernel_setup,
               /*charges_process_switch=*/true),
      h2d_(sched, *this, "copy-h2d", obs::kTrackCopyH2D, params_.copy_setup),
      d2h_(sched, *this, "copy-d2h", obs::kTrackCopyD2H, params_.copy_setup) {
  if (obs::Tracer::enabled()) trace_id_ = obs::Tracer::instance().acquire_sim_id();
}

Device::~Device() {
  // A booking nobody waited for still owes its end-of-service sample.
  for (Engine* engine : {&compute_, &h2d_, &d2h_}) engine->settle_bookings(SimTime::max());
  const std::int64_t ops = compute_.ops_ + h2d_.ops_ + d2h_.ops_;
  if (ops == 0) return;
  auto& reg = obs::Registry::global();
  reg.counter("gpusim.devices").add(1);
  reg.counter("gpusim.ops").add(ops);
  reg.counter("gpusim.exposed_launches")
      .add(compute_.exposed_count_ + h2d_.exposed_count_ + d2h_.exposed_count_);
  reg.counter("gpusim.exposed_launch_ns")
      .add((compute_.exposed_total_ + h2d_.exposed_total_ + d2h_.exposed_total_).ns());
  reg.counter("gpusim.wake_events").add(wake_count_);
  reg.counter("gpusim.wake_penalty_ns").add(total_wake_.ns());
  reg.counter("gpusim.engine_busy_ns")
      .add((compute_.busy_time_ + h2d_.busy_time_ + d2h_.busy_time_).ns());
  auto& depth = reg.histogram("gpusim.queue_depth");
  depth.merge(compute_.queue_depth_);
  depth.merge(h2d_.queue_depth_);
  depth.merge(d2h_.queue_depth_);
  const SimTime now = sched_.now();
  if (now.ns() > 0) {
    reg.gauge("gpusim.compute_utilization").set(compute_.busy_time_.seconds() / now.seconds());
  }
}

Engine& Device::engine_for(OpKind kind) {
  switch (kind) {
    case OpKind::kMemcpyH2D: return h2d_;
    case OpKind::kMemcpyD2H: return d2h_;
    case OpKind::kKernel: return compute_;
  }
  RSD_ASSERT(false && "unreachable");
}

SimDuration matmul_kernel_duration(const DeviceParams& params, std::int64_t n) {
  const double flops = 2.0 * static_cast<double>(n) * static_cast<double>(n) *
                       static_cast<double>(n);
  const double seconds = flops / (params.matmul_tflops * 1e12);
  return params.kernel_base + duration::seconds(seconds);
}

SimDuration Device::matmul_kernel_duration(std::int64_t n) const {
  return gpu::matmul_kernel_duration(params_, n);
}

SimDuration Device::wake_penalty(SimDuration gap) const {
  if (gap <= params_.wake_t0) return SimDuration::zero();
  const SimDuration scaled = (gap - params_.wake_t0) * params_.wake_alpha;
  return std::min(scaled, params_.wake_max);
}

SimDuration Device::begin_op() {
  const SimTime now = sched_.now();
  retire_booked(now);
  SimDuration wake = SimDuration::zero();
  if (busy_ops_ == 0 && warmed_up_) {
    wake = wake_penalty(now - idle_since_);
    if (wake > SimDuration::zero()) {
      ++wake_count_;
      total_wake_ += wake;
    }
  }
  warmed_up_ = true;
  if (busy_ops_ == 0) busy_since_ = now;
  ++busy_ops_;
  return wake;
}

void Device::end_op() {
  retire_booked(sched_.now());
  close_op(sched_.now());
}

void Device::book_end(SimTime end) {
  booked_ends_.push(end);
  std::size_t i = booked_ends_.size() - 1;
  for (; i > 0 && booked_ends_[i - 1] > end; --i) booked_ends_[i] = booked_ends_[i - 1];
  booked_ends_[i] = end;
}

void Device::retire_booked(SimTime now) {
  while (!booked_ends_.empty() && booked_ends_[0] <= now) close_op(booked_ends_.pop());
}

void Device::close_op(SimTime at) {
  RSD_ASSERT(busy_ops_ > 0);
  if (--busy_ops_ == 0) {
    idle_since_ = at;
    total_busy_ += at - busy_since_;
  }
}

SimDuration Device::device_busy_time(SimTime now) const {
  // Booked ops that ended by `now` close here as retire_booked would close
  // them; every booked op is still counted in busy_ops_.
  SimDuration busy = total_busy_;
  int in_flight = busy_ops_;
  for (std::size_t i = 0; i < booked_ends_.size() && booked_ends_[i] <= now; ++i) {
    if (--in_flight == 0) busy += booked_ends_[i] - busy_since_;
  }
  if (in_flight > 0) busy += now - busy_since_;
  return busy;
}

double Device::energy_joules(SimTime now) const {
  const SimDuration busy = device_busy_time(now);
  const SimDuration idle = (now - SimTime::zero()) - busy;
  return busy.seconds() * params_.busy_watts + idle.seconds() * params_.idle_watts;
}

}  // namespace rsd::gpu

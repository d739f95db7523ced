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

void Engine::settle_bookings(SimTime now) {
  while (!booked_.empty() && booked_[0].end <= now) {
    const Booking done = booked_.pop();
    if (const std::int32_t trace_id = device_.trace_id(); trace_id >= 0) {
      obs::Tracer::instance().counter_sim(trace_id, track_, done.end.ns(), "gpu",
                                          name_ + ".queue", static_cast<double>(done.behind));
    }
  }
}

void Engine::book(OpRecord& rec, SimDuration service) {
  const SimTime now = sched_.now();
  settle_bookings(now);
  // Pipelining: the setup overhead is exposed only when the engine has no
  // work at arrival (nothing to hide it behind); each outstanding booking
  // is work.
  const auto ahead = static_cast<std::int64_t>(booked_.size());
  const bool exposed = ahead == 0;
  queue_depth_.observe(ahead);
  if (const std::int32_t trace_id = device_.trace_id(); trace_id >= 0) {
    for (std::size_t i = 0; i < booked_.size(); ++i) ++booked_[i].behind;
    obs::Tracer::instance().counter_sim(trace_id, track_, now.ns(), "gpu", name_ + ".queue",
                                        static_cast<double>(ahead + 1));
  }
  // Behind a booking the op starts when the last one ends: its setup hides
  // behind that work, and the booking keeps the device busy until then, so
  // begin_op charges no wake (W(0) = 0). `start`/`end` bracket the op's
  // *execution*, as a profiler reports it; setup, wake, and context-switch
  // costs show up as queue delay instead.
  const SimTime from = exposed ? now : booked_.back().end;
  rec.wake_penalty = device_.begin_op();
  rec.switch_penalty = charges_switch_ && last_process_ >= 0 && last_process_ != rec.process_id
                           ? device_.params().process_switch
                           : SimDuration::zero();
  last_process_ = rec.process_id;
  rec.exposed_overhead = exposed ? setup_ : SimDuration::zero();
  rec.start = from + rec.exposed_overhead + rec.wake_penalty + rec.switch_penalty;
  rec.end = rec.start + service;
  booked_.push(Booking{rec.end});
  device_.book_end(rec.end);
  account(rec, exposed, now);
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
  if (booked_ends_.empty()) {
    if (warmed_up_) wake = wake_penalty(now - idle_since_);
    if (wake > SimDuration::zero()) {
      ++wake_count_;
      total_wake_ += wake;
    }
    busy_since_ = now;
  }
  warmed_up_ = true;
  return wake;
}

void Device::book_end(SimTime end) {
  booked_ends_.push(end);
  std::size_t i = booked_ends_.size() - 1;
  for (; i > 0 && booked_ends_[i - 1] > end; --i) booked_ends_[i] = booked_ends_[i - 1];
  booked_ends_[i] = end;
}

void Device::retire_booked(SimTime now) {
  while (!booked_ends_.empty() && booked_ends_[0] <= now) {
    const SimTime end = booked_ends_.pop();
    if (booked_ends_.empty()) {
      idle_since_ = end;
      total_busy_ += end - busy_since_;
    }
  }
}

SimDuration Device::device_busy_time(SimTime now) const {
  // Booked ops that ended by `now` close here as retire_booked would close
  // them: the busy stretch in progress ends at the last booked end.
  if (booked_ends_.empty()) return total_busy_;
  return total_busy_ + (std::min(now, booked_ends_.back()) - busy_since_);
}

double Device::energy_joules(SimTime now) const {
  const SimDuration busy = device_busy_time(now);
  const SimDuration idle = (now - SimTime::zero()) - busy;
  return busy.seconds() * params_.busy_watts + idle.seconds() * params_.idle_watts;
}

}  // namespace rsd::gpu

// The simulated GPU device (the paper's A100-class accelerator).
//
// Mechanics — chosen to reproduce the two starvation effects the paper's
// slack proxy exposes (Section IV-B, Figure 3):
//
//  1. Launch pipelining. Every operation carries a setup overhead
//     (command processing, DMA/kernel setup). When the target engine
//     already has work in flight the overhead is hidden behind execution;
//     when the engine is idle the overhead is exposed, extending the op.
//     This is why tiny kernels notice even 1 us of slack.
//
//  2. Power-state wake penalty. When the whole device has been idle for a
//     gap g, the first op after the gap pays W(g) = min(Wmax, alpha *
//     max(0, g - t0)) — an abstraction of clock/power ramping, which grows
//     with how deeply the device slept and saturates. The cap is what lets
//     multi-second kernels tolerate even 1 s of slack, and the growth is
//     what produces the sharp drop-off at ms-scale slack.
//
// Engines: one compute engine plus one copy engine per direction, matching
// the paper's observation that H2D/D2H DMAs and kernels proceed in
// parallel. Streams are in-order; different streams interleave freely.
//
// Engine occupancy: an op's timing is closed-form at arrival, so
// `Engine::book` fills its record, tallies and tracer records then and
// reserves the engine until `end` by timestamp, with no event at all;
// `execute()` books and returns the one delay until `end`. On an idle
// engine (no booking outstanding) start = now + exposed setup + wake +
// switch. Behind outstanding bookings the op chains: it starts when the
// last one ends (plus any process switch), unexposed and with no wake — the
// booking keeps the device busy through that instant, so W(0) = 0. Either
// way end = start + service, so each engine serves its ops FIFO in arrival
// order. Tie rule: a booking ending at or before `now` is over, so an op
// arriving exactly at the last booked end finds the engine idle. The
// device retires booked ends lazily, in end-time order, before it next
// opens an op or reports busy time; same-instant ties across engines are
// harmless there, since W(0) = 0 and the union of busy intervals does not
// depend on order. A booking's end-of-service queue sample waits until the
// engine next sees an arrival after that end, when every op that queued
// behind it is known. tests/gpusim_device_test.cpp pins the timing and
// tracer output of one op sequence field by field.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/error.hpp"
#include "core/inline_fifo.hpp"
#include "core/units.hpp"
#include "gpusim/records.hpp"
#include "interconnect/link.hpp"
#include "obs/metrics.hpp"
#include "sim/scheduler.hpp"

namespace rsd::gpu {

/// Calibration constants for the device model. Defaults approximate an
/// A100-SXM4-40GB running single-precision GEMM (see DESIGN.md).
struct DeviceParams {
  std::string name = "sim-a100";
  /// Effective matmul throughput (TFLOP/s). A100 TF32 tensor-core GEMM
  /// sustains on the order of 1e14 FLOP/s.
  double matmul_tflops = 100.0;
  /// Fixed kernel execution floor (scheduling, launch tail).
  SimDuration kernel_base = duration::microseconds(4.0);
  /// Setup overhead per op, hidden when the engine is already busy.
  SimDuration kernel_setup = duration::microseconds(8.0);
  SimDuration copy_setup = duration::microseconds(4.0);
  /// Power-state wake penalty W(g) = min(wake_max, wake_alpha*(g - wake_t0)).
  SimDuration wake_t0 = duration::microseconds(0.5);
  double wake_alpha = 0.10;
  SimDuration wake_max = duration::milliseconds(1.5);
  /// Cost of switching the device between OS processes (CUDA contexts):
  /// charged by the compute engine when consecutive kernels come from
  /// different processes. Threads within one process share a context and
  /// never pay it. This is what makes many MPI ranks sharing one GPU
  /// expensive (the Figure 2 small-box degradation).
  SimDuration process_switch = duration::microseconds(370.0);
  /// Device memory capacity (A100 40 GiB).
  Bytes memory_capacity = 40ULL * kGiB;
  /// Power model (A100-SXM4-40GB-class): draw while executing, while idle
  /// but composed/attached, and while powered down in a CDI pool — the
  /// efficiency lever the paper's introduction cites.
  double busy_watts = 400.0;
  double idle_watts = 55.0;
  double powered_down_watts = 8.0;

  bool operator==(const DeviceParams&) const = default;
};

/// Duration of an n x n x n single-precision matmul kernel under these
/// params. Pure function of the params, so callers (proxy calibration,
/// program builders) need not construct a Device to size kernels.
[[nodiscard]] SimDuration matmul_kernel_duration(const DeviceParams& params, std::int64_t n);

/// Device memory accounting: byte-granular with capacity enforcement.
/// (Fragmentation is not modelled; the paper's exclusions are pure-capacity:
/// 3 x 4 GiB matrices x 4 threads > 40 GiB.)
///
/// Handles index a flat size array with a recycled-slot free list, so
/// allocate/free are O(1) with no node allocation — the former `std::map`
/// cost one red-black node per cudaMalloc. A handle is `slot index + 1`
/// (0 stays an invalid sentinel); `sizes_[idx] == 0` marks a free slot,
/// which is unambiguous because zero-byte allocations are rejected.
class MemoryPool {
 public:
  explicit MemoryPool(Bytes capacity) : capacity_(capacity) {}

  using Handle = std::uint64_t;

  /// Throws rsd::Error{kOutOfMemory} when the allocation does not fit.
  [[nodiscard]] Handle allocate(Bytes bytes);
  void free(Handle handle);

  [[nodiscard]] Bytes capacity() const { return capacity_; }
  [[nodiscard]] Bytes used() const { return used_; }
  [[nodiscard]] Bytes peak() const { return peak_; }
  [[nodiscard]] std::size_t allocation_count() const {
    return sizes_.size() - free_slots_.size();
  }

 private:
  Bytes capacity_;
  Bytes used_ = 0;
  Bytes peak_ = 0;
  std::vector<Bytes> sizes_;               ///< Per-slot live size; 0 = free.
  std::vector<std::uint32_t> free_slots_;  ///< Recycled slot indices (LIFO).
};

class Device;

/// One hardware execution engine (compute, H2D copy, or D2H copy): a FIFO
/// server with launch-pipelining semantics.
class Engine {
 public:
  Engine(sim::Scheduler& sched, Device& device, std::string name, std::int32_t trace_track,
         SimDuration setup_overhead, bool charges_process_switch = false)
      : sched_(sched), device_(device), name_(std::move(name)), track_(trace_track),
        setup_(setup_overhead), charges_switch_(charges_process_switch) {}

  /// Book one op of the given service duration in closed form — on an idle
  /// engine after its exposed setup, behind outstanding bookings from the
  /// last one's end — fill its start/end/penalty fields, tallies and tracer
  /// records, and reserve the engine until `rec.end`. A booked op counts
  /// toward busy_time() from the moment it is booked.
  void book(OpRecord& rec, SimDuration service);

  /// Book the op and return the delay until it completes:
  /// `co_await engine.execute(rec, service)` resumes at `rec.end`.
  [[nodiscard]] sim::Delay execute(OpRecord& rec, SimDuration service) {
    book(rec, service);
    return sim::delay(rec.end - sched_.now());
  }

  [[nodiscard]] const std::string& name() const { return name_; }
  [[nodiscard]] SimDuration busy_time() const { return busy_time_; }

 private:
  friend class Device;  ///< Metrics flush at device teardown.

  /// Tallies and tracer records of a booked op.
  void account(const OpRecord& rec, bool exposed, SimTime arrival);
  /// Drops the bookings that ended by `now`, emitting the queue-depth
  /// sample each owes at its end: the ops that arrived during it. Deferred
  /// because a booking knows its end but not who will queue behind it.
  void settle_bookings(SimTime now);

  /// A booked op: its end and, when tracing, the ops that arrived while it
  /// was outstanding.
  struct Booking {
    SimTime end;
    std::int64_t behind = 0;
  };

  sim::Scheduler& sched_;
  Device& device_;
  std::string name_;
  std::int32_t track_;  ///< SimTrack row in the obs timeline.
  SimDuration setup_;
  bool charges_switch_;
  /// Bookings not yet settled, oldest first; their ends ascend, since each
  /// books from the previous end at the earliest.
  InlineFifo<Booking, 4> booked_;
  int last_process_ = -1;
  SimDuration busy_time_ = SimDuration::zero();
  // Local tallies flushed into obs::Registry by ~Device (no per-op atomics).
  std::int64_t ops_ = 0;
  std::int64_t exposed_count_ = 0;
  SimDuration exposed_total_ = SimDuration::zero();
  obs::HistogramData queue_depth_;  ///< Depth seen by each arriving op.
};

/// The simulated GPU.
class Device {
 public:
  Device(sim::Scheduler& sched, DeviceParams params, interconnect::Link link);

  /// Flushes the accumulated engine/wake tallies into the global metrics
  /// registry (the per-run quiesce point of the obs design).
  ~Device();

  Device(const Device&) = delete;
  Device& operator=(const Device&) = delete;

  [[nodiscard]] const DeviceParams& params() const { return params_; }
  [[nodiscard]] const interconnect::Link& link() const { return link_; }
  [[nodiscard]] MemoryPool& memory() { return memory_; }
  [[nodiscard]] const MemoryPool& memory() const { return memory_; }
  [[nodiscard]] sim::Scheduler& scheduler() { return sched_; }

  [[nodiscard]] Engine& compute_engine() { return compute_; }
  [[nodiscard]] Engine& h2d_engine() { return h2d_; }
  [[nodiscard]] Engine& d2h_engine() { return d2h_; }
  [[nodiscard]] Engine& engine_for(OpKind kind);

  void set_record_sink(RecordSink* sink) { sink_ = sink; }
  [[nodiscard]] RecordSink* record_sink() const { return sink_; }

  /// Simulated-timeline id in the obs tracer, or -1 when tracing was off at
  /// construction. Instrumentation sites branch on this cached value, so a
  /// disabled tracer costs one member load per site.
  [[nodiscard]] std::int32_t trace_id() const { return trace_id_; }

  /// Duration of an n x n x n single-precision matmul kernel on this device.
  [[nodiscard]] SimDuration matmul_kernel_duration(std::int64_t n) const;

  /// Power-state wake penalty for an idle gap of length `gap`.
  [[nodiscard]] SimDuration wake_penalty(SimDuration gap) const;

  /// Total time the compute engine was busy (for utilisation metrics).
  [[nodiscard]] SimDuration kernel_busy_time() const { return compute_.busy_time(); }
  [[nodiscard]] SimDuration copy_busy_time() const {
    return h2d_.busy_time() + d2h_.busy_time();
  }

  /// Count of wake penalties paid (diagnostics / ablation).
  [[nodiscard]] std::int64_t wake_count() const { return wake_count_; }
  [[nodiscard]] SimDuration total_wake_penalty() const { return total_wake_; }

  /// Time the device had at least one op in flight, up to `now`.
  [[nodiscard]] SimDuration device_busy_time(SimTime now) const;

  /// Energy consumed up to `now`: busy time at busy_watts, the rest at
  /// idle_watts (the device is composed for the whole simulation).
  [[nodiscard]] double energy_joules(SimTime now) const;

 private:
  friend class Engine;

  /// Called by an engine at booking, before book_end; returns the wake
  /// penalty the op must pay and opens a busy stretch if the device is idle.
  [[nodiscard]] SimDuration begin_op();
  /// A booked op closes at `end` without an event: remember it, and close
  /// it when the device next looks at its busy state.
  void book_end(SimTime end);
  /// Close every booked op that has ended by `now`, in end-time order; the
  /// device goes idle with the last one.
  void retire_booked(SimTime now);

  sim::Scheduler& sched_;
  DeviceParams params_;
  interconnect::Link link_;
  MemoryPool memory_;
  Engine compute_;
  Engine h2d_;
  Engine d2h_;
  RecordSink* sink_ = nullptr;
  std::int32_t trace_id_ = -1;

  bool warmed_up_ = false;  ///< First-ever op pays no wake (device starts warm).
  SimTime idle_since_ = SimTime::zero();
  SimTime busy_since_ = SimTime::zero();
  SimDuration total_busy_ = SimDuration::zero();
  std::int64_t wake_count_ = 0;
  SimDuration total_wake_ = SimDuration::zero();
  /// Ends of the booked ops not yet retired, ascending: each engine's chain
  /// of bookings, merged. The device is busy while any is pending.
  InlineFifo<SimTime, 8> booked_ends_;
};

}  // namespace rsd::gpu

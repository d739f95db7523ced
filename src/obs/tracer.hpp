// rsd::obs timeline tracer — the simulator's own observability layer.
//
// The paper's whole method consumes an NSys-style timeline of *another*
// application; this module gives the simulator the same kind of timeline
// about itself. Instrumentation sites (gpusim engines, the slack injector
// path, the exec pool, the harness) emit spans, instants, and counters
// into per-thread ring buffers; a snapshot can be exported as Chrome
// `trace_event` JSON (loadable in Perfetto / chrome://tracing) or bridged
// back into `trace::Trace` (see trace/timeline.hpp) so the simulator's own
// emitted timeline can be pushed through the paper's Eq. 1–3 model.
//
// Two clock domains coexist:
//
//   * wall clock  — nanoseconds of real time since `enable()`; used by the
//     exec pool and harness phases (sim_id == kWallClock);
//   * simulated   — integer nanoseconds of `sim::Scheduler` time; each
//     simulation (one `gpu::Device`) acquires a `sim_id` and its events
//     carry explicit timestamps. In the Chrome export every simulation
//     becomes its own "process" so independent sim clocks never interleave.
//
// Cost model: when tracing is disabled (the default) every emission site
// reduces to one relaxed atomic load and a branch. When enabled, an
// emission takes one uncontended per-thread mutex and a slot write in a
// fixed-capacity ring (oldest events are overwritten and counted as
// dropped — tracing a long fleet can never exhaust memory).
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace rsd::obs {

/// Chrome trace_event phases (the subset this tracer emits).
enum class Phase : char {
  kBegin = 'B',     ///< Wall-clock span open (RAII `Span`).
  kEnd = 'E',       ///< Wall-clock span close.
  kComplete = 'X',  ///< Retrospective span with explicit ts + duration.
  kInstant = 'i',   ///< Point event.
  kCounter = 'C',   ///< Sampled numeric series.
};

/// Event argument: either numeric or string. Numeric covers every integer
/// the simulator produces (|v| < 2^53 holds for ns timestamps and bytes).
struct Arg {
  std::string key;
  bool numeric = true;
  double num = 0.0;
  std::string str;

  [[nodiscard]] static Arg n(std::string key, double value) {
    Arg a;
    a.key = std::move(key);
    a.num = value;
    return a;
  }
  [[nodiscard]] static Arg s(std::string key, std::string value) {
    Arg a;
    a.key = std::move(key);
    a.numeric = false;
    a.str = std::move(value);
    return a;
  }
};

/// `Event::sim_id` value for wall-clock events.
inline constexpr std::int32_t kWallClock = -1;

/// Track (thread-row) ids inside one simulation's timeline. API tracks are
/// open-ended: context N lands on kTrackApiBase + N.
enum SimTrack : std::int32_t {
  kTrackCompute = 0,
  kTrackCopyH2D = 1,
  kTrackCopyD2H = 2,
  kTrackPower = 3,
  kTrackSlack = 4,
  kTrackApiBase = 10,
  /// Per-link fabric telemetry: link N lands on kTrackNetBase + N.
  kTrackNetBase = 100,
  /// Per-partition engine timelines: partition N on kTrackPardesBase + N.
  kTrackPardesBase = 100000,
};

struct Event {
  Phase phase = Phase::kInstant;
  std::int32_t sim_id = kWallClock;  ///< kWallClock or an acquired sim id.
  std::int32_t track = 0;            ///< Wall: thread index; sim: SimTrack row.
  std::int64_t ts_ns = 0;            ///< Timestamp in the event's clock domain.
  std::int64_t dur_ns = 0;           ///< kComplete only.
  double value = 0.0;                ///< kCounter only.
  const char* category = "";         ///< Static-storage string (literal).
  std::string name;
  std::vector<Arg> args;
};

class Tracer {
 public:
  /// Process-wide tracer (disabled until `enable()`).
  [[nodiscard]] static Tracer& instance();

  /// The one check every instrumentation site makes first.
  [[nodiscard]] static bool enabled() {
    return enabled_flag().load(std::memory_order_relaxed);
  }

  /// Turn tracing on. `ring_capacity` is events per thread; 0 means the
  /// RSD_TRACE_BUFFER environment variable or the 64Ki default. Resets any
  /// previously captured events and restarts the wall-clock epoch.
  void enable(std::size_t ring_capacity = 0);
  void disable();

  /// Drop captured events (stays enabled; rings keep their capacity).
  void clear();

  /// Switches instrumentation off on every thread for its lifetime, then
  /// back on, keeping what was captured. A no-op when tracing is off.
  class Pause {
   public:
    Pause() : resume_(enabled_flag().exchange(false)) {}
    ~Pause() { if (resume_) enabled_flag().store(true); }
    Pause(const Pause&) = delete;
    Pause& operator=(const Pause&) = delete;

   private:
    bool resume_;
  };

  /// Allocate a fresh simulated-timeline id (one per `gpu::Device`).
  [[nodiscard]] std::int32_t acquire_sim_id() {
    return next_sim_id_.fetch_add(1, std::memory_order_relaxed);
  }

  /// Wall-clock nanoseconds since `enable()`.
  [[nodiscard]] std::int64_t wall_now_ns() const;

  /// Append to the calling thread's ring. Wall-clock events with ts_ns == 0
  /// are stamped with `wall_now_ns()`. No-op when disabled.
  void emit(Event e);

  // -- Wall-clock helpers -------------------------------------------------
  void instant(const char* category, std::string name, std::vector<Arg> args = {});
  void counter(const char* category, std::string name, double value);

  // -- Simulated-timeline helpers (explicit timestamps) -------------------
  void complete_sim(std::int32_t sim_id, std::int32_t track, std::int64_t ts_ns,
                    std::int64_t dur_ns, const char* category, std::string name,
                    std::vector<Arg> args = {});
  void instant_sim(std::int32_t sim_id, std::int32_t track, std::int64_t ts_ns,
                   const char* category, std::string name, std::vector<Arg> args = {});
  void counter_sim(std::int32_t sim_id, std::int32_t track, std::int64_t ts_ns,
                   const char* category, std::string name, double value);

  struct Snapshot {
    /// Sorted by (sim_id, track, ts_ns); simulated-domain ties break
    /// further on (phase, name, dur_ns, value) so the order — and hence
    /// the Chrome export — is a pure function of the simulation, however
    /// many worker threads emitted the events. Wall-clock events keep
    /// their per-thread emission order (stable sort).
    std::vector<Event> events;
    std::uint64_t dropped = 0;  ///< Ring overwrites across all threads.
    std::size_t ring_capacity = 0;
  };

  /// Copy out everything captured so far. Safe to call while other threads
  /// are still emitting (each ring is locked briefly).
  [[nodiscard]] Snapshot snapshot() const;

 private:
  Tracer() = default;

  struct Ring {
    std::mutex m;
    std::vector<Event> buf;  ///< Fixed capacity once created.
    std::size_t next = 0;    ///< Slot for the next event (wraps).
    std::size_t count = 0;   ///< Events currently held (<= capacity).
    std::uint64_t dropped = 0;
    std::int32_t tid = 0;    ///< Wall-domain thread index.
  };

  [[nodiscard]] static std::atomic<bool>& enabled_flag();
  [[nodiscard]] Ring& local_ring();

  mutable std::mutex registry_m_;
  std::vector<std::shared_ptr<Ring>> rings_;
  std::size_t capacity_ = 1u << 16;
  std::atomic<std::uint64_t> generation_{0};  ///< Bumped by enable(); stale
                                              ///< thread caches re-register.
  std::atomic<std::int32_t> next_sim_id_{0};
  std::atomic<std::int32_t> next_tid_{0};
  std::atomic<std::int64_t> epoch_ns_{0};  ///< steady_clock ns at enable().
};

/// RAII wall-clock span: emits kBegin at construction and kEnd at
/// destruction. Both no-ops when tracing was disabled at construction.
class Span {
 public:
  Span(const char* category, std::string name, std::vector<Arg> args = {});
  ~Span();
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  bool active_ = false;
  const char* category_;
  std::string name_;
};

/// JSON string-literal escaping (shared by the Chrome exporter and the
/// metrics serializer; kept here so rsd_obs stays dependency-free).
[[nodiscard]] std::string json_escape(std::string_view s);

/// The simulated-domain subset of a snapshot (sim_id >= 0). Simulated
/// events carry explicit `sim::Scheduler` timestamps, so this slice —
/// unlike the wall-clock rows — is reproducible across runs and across
/// `--sim-threads` values; exporting it yields byte-identical JSON.
[[nodiscard]] Tracer::Snapshot simulated_slice(const Tracer::Snapshot& snapshot);

/// Chrome trace_event JSON ({"traceEvents": [...]}) for a snapshot.
/// Orphan kEnd events (their kBegin fell out of the ring) are skipped so
/// the output always carries matched B/E pairs.
[[nodiscard]] std::string chrome_trace_json(const Tracer::Snapshot& snapshot);

/// Write `chrome_trace_json` to `path` (parent directories created).
void write_chrome_trace(const std::string& path, const Tracer::Snapshot& snapshot);

}  // namespace rsd::obs

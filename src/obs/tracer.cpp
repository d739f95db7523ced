#include "obs/tracer.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>
#include <stdexcept>
#include <system_error>

#include "core/env.hpp"

namespace rsd::obs {

namespace {

std::int64_t steady_now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

std::size_t capacity_from_env(std::size_t requested) {
  if (requested > 0) return requested;
  return static_cast<std::size_t>(env_count("RSD_TRACE_BUFFER").value_or(1 << 16));
}

}  // namespace

std::atomic<bool>& Tracer::enabled_flag() {
  static std::atomic<bool> flag{false};
  return flag;
}

Tracer& Tracer::instance() {
  static Tracer tracer;
  return tracer;
}

void Tracer::enable(std::size_t ring_capacity) {
  std::lock_guard<std::mutex> lk(registry_m_);
  capacity_ = capacity_from_env(ring_capacity);
  rings_.clear();
  next_tid_.store(0, std::memory_order_relaxed);
  next_sim_id_.store(0, std::memory_order_relaxed);
  epoch_ns_.store(steady_now_ns(), std::memory_order_relaxed);
  generation_.fetch_add(1, std::memory_order_release);
  enabled_flag().store(true, std::memory_order_release);
}

void Tracer::disable() { enabled_flag().store(false, std::memory_order_release); }

void Tracer::clear() {
  std::lock_guard<std::mutex> lk(registry_m_);
  for (const auto& ring : rings_) {
    std::lock_guard<std::mutex> rk(ring->m);
    ring->next = 0;
    ring->count = 0;
    ring->dropped = 0;
  }
}

std::int64_t Tracer::wall_now_ns() const {
  return steady_now_ns() - epoch_ns_.load(std::memory_order_relaxed);
}

Tracer::Ring& Tracer::local_ring() {
  struct Cache {
    std::shared_ptr<Ring> ring;
    std::uint64_t generation = 0;
  };
  thread_local Cache cache;
  const std::uint64_t gen = generation_.load(std::memory_order_acquire);
  if (!cache.ring || cache.generation != gen) {
    auto ring = std::make_shared<Ring>();
    {
      std::lock_guard<std::mutex> lk(registry_m_);
      ring->buf.resize(capacity_);
      ring->tid = next_tid_.fetch_add(1, std::memory_order_relaxed);
      rings_.push_back(ring);
    }
    cache.ring = std::move(ring);
    cache.generation = gen;
  }
  return *cache.ring;
}

void Tracer::emit(Event e) {
  if (!enabled()) return;
  if (e.sim_id == kWallClock) {
    if (e.ts_ns == 0) e.ts_ns = wall_now_ns();
    // Wall events live on their emitting thread's row.
  }
  Ring& ring = local_ring();
  std::lock_guard<std::mutex> lk(ring.m);
  if (e.sim_id == kWallClock) e.track = ring.tid;
  if (ring.buf.empty()) return;  // capacity 0: count everything as dropped
  if (ring.count == ring.buf.size()) {
    ++ring.dropped;  // overwrite the oldest slot
  } else {
    ++ring.count;
  }
  ring.buf[ring.next] = std::move(e);
  ring.next = (ring.next + 1) % ring.buf.size();
}

void Tracer::instant(const char* category, std::string name, std::vector<Arg> args) {
  if (!enabled()) return;
  Event e;
  e.phase = Phase::kInstant;
  e.category = category;
  e.name = std::move(name);
  e.args = std::move(args);
  emit(std::move(e));
}

void Tracer::counter(const char* category, std::string name, double value) {
  if (!enabled()) return;
  Event e;
  e.phase = Phase::kCounter;
  e.category = category;
  e.name = std::move(name);
  e.value = value;
  emit(std::move(e));
}

void Tracer::complete_sim(std::int32_t sim_id, std::int32_t track, std::int64_t ts_ns,
                          std::int64_t dur_ns, const char* category, std::string name,
                          std::vector<Arg> args) {
  if (!enabled()) return;
  Event e;
  e.phase = Phase::kComplete;
  e.sim_id = sim_id;
  e.track = track;
  e.ts_ns = ts_ns;
  e.dur_ns = dur_ns;
  e.category = category;
  e.name = std::move(name);
  e.args = std::move(args);
  emit(std::move(e));
}

void Tracer::instant_sim(std::int32_t sim_id, std::int32_t track, std::int64_t ts_ns,
                         const char* category, std::string name, std::vector<Arg> args) {
  if (!enabled()) return;
  Event e;
  e.phase = Phase::kInstant;
  e.sim_id = sim_id;
  e.track = track;
  e.ts_ns = ts_ns;
  e.category = category;
  e.name = std::move(name);
  e.args = std::move(args);
  emit(std::move(e));
}

void Tracer::counter_sim(std::int32_t sim_id, std::int32_t track, std::int64_t ts_ns,
                         const char* category, std::string name, double value) {
  if (!enabled()) return;
  Event e;
  e.phase = Phase::kCounter;
  e.sim_id = sim_id;
  e.track = track;
  e.ts_ns = ts_ns;
  e.category = category;
  e.name = std::move(name);
  e.value = value;
  emit(std::move(e));
}

Tracer::Snapshot Tracer::snapshot() const {
  Snapshot snap;
  std::vector<std::shared_ptr<Ring>> rings;
  {
    std::lock_guard<std::mutex> lk(registry_m_);
    rings = rings_;
    snap.ring_capacity = capacity_;
  }
  for (const auto& ring : rings) {
    std::lock_guard<std::mutex> rk(ring->m);
    snap.dropped += ring->dropped;
    // Oldest-first: the ring holds `count` events ending just before `next`.
    const std::size_t cap = ring->buf.size();
    for (std::size_t i = 0; i < ring->count; ++i) {
      const std::size_t idx = (ring->next + cap - ring->count + i) % cap;
      snap.events.push_back(ring->buf[idx]);
    }
  }
  std::stable_sort(snap.events.begin(), snap.events.end(),
                   [](const Event& a, const Event& b) {
                     if (a.sim_id != b.sim_id) return a.sim_id < b.sim_id;
                     if (a.track != b.track) return a.track < b.track;
                     if (a.ts_ns != b.ts_ns) return a.ts_ns < b.ts_ns;
                     // Simulated events from a partitioned engine land in
                     // different per-thread rings run to run; tie-break on
                     // content so their order depends only on the
                     // simulation itself. Wall events fall through to the
                     // stable per-ring order.
                     if (a.sim_id == kWallClock) return false;
                     if (a.phase != b.phase) {
                       return static_cast<char>(a.phase) < static_cast<char>(b.phase);
                     }
                     if (a.name != b.name) return a.name < b.name;
                     if (a.dur_ns != b.dur_ns) return a.dur_ns < b.dur_ns;
                     return a.value < b.value;
                   });
  return snap;
}

Span::Span(const char* category, std::string name, std::vector<Arg> args)
    : category_(category), name_(std::move(name)) {
  if (!Tracer::enabled()) return;
  active_ = true;
  Event e;
  e.phase = Phase::kBegin;
  e.category = category_;
  e.name = name_;
  e.args = std::move(args);
  Tracer::instance().emit(std::move(e));
}

Span::~Span() {
  if (!active_) return;
  Event e;
  e.phase = Phase::kEnd;
  e.category = category_;
  e.name = std::move(name_);
  Tracer::instance().emit(std::move(e));
}

std::string json_escape(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      case '\r': out += "\\r"; break;
      case '\b': out += "\\b"; break;
      case '\f': out += "\\f"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", static_cast<unsigned>(c));
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

namespace {

/// Finite doubles only (inf/nan are not valid JSON); shortest-ish text.
std::string json_number(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.12g", v);
  return std::string{buf};
}

/// Chrome pids: one process for the wall clock, one per simulation, so the
/// independent clock domains never share a row.
int chrome_pid(const Event& e) { return e.sim_id == kWallClock ? 1 : 1000 + e.sim_id; }

const char* sim_track_name(std::int32_t track) {
  switch (track) {
    case kTrackCompute: return "compute";
    case kTrackCopyH2D: return "copy-h2d";
    case kTrackCopyD2H: return "copy-d2h";
    case kTrackPower: return "power";
    case kTrackSlack: return "slack";
    default: return nullptr;  // open-ended bases handled by the caller
  }
}

/// Open-ended track families (api-ctxN, link-N, partition-N); empty for
/// tracks with no derived name. Highest base wins since the bases nest.
std::string sim_track_family(std::int32_t track) {
  if (track >= kTrackPardesBase) {
    return "partition-" + std::to_string(track - kTrackPardesBase);
  }
  if (track >= kTrackNetBase) return "link-" + std::to_string(track - kTrackNetBase);
  if (track >= kTrackApiBase) return "api-ctx" + std::to_string(track - kTrackApiBase);
  return {};
}

void append_args(std::ostringstream& out, const std::vector<Arg>& args) {
  out << "\"args\":{";
  for (std::size_t i = 0; i < args.size(); ++i) {
    if (i > 0) out << ',';
    out << '"' << json_escape(args[i].key) << "\":";
    if (args[i].numeric) {
      out << json_number(args[i].num);
    } else {
      out << '"' << json_escape(args[i].str) << '"';
    }
  }
  out << '}';
}

}  // namespace

Tracer::Snapshot simulated_slice(const Tracer::Snapshot& snapshot) {
  Tracer::Snapshot out;
  out.dropped = snapshot.dropped;
  out.ring_capacity = snapshot.ring_capacity;
  for (const Event& e : snapshot.events) {
    if (e.sim_id != kWallClock) out.events.push_back(e);
  }
  return out;
}

std::string chrome_trace_json(const Tracer::Snapshot& snapshot) {
  std::ostringstream out;
  out << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n";
  bool first = true;
  const auto emit_prefix = [&] {
    if (!first) out << ",\n";
    first = false;
  };

  // Metadata: name the processes and the fixed simulation tracks.
  std::map<int, std::string> pids;            // pid -> process name
  std::map<std::pair<int, int>, std::string> tids;  // (pid, tid) -> name
  for (const Event& e : snapshot.events) {
    const int pid = chrome_pid(e);
    if (e.sim_id == kWallClock) {
      pids.emplace(pid, "host");
    } else {
      pids.emplace(pid, "sim-" + std::to_string(e.sim_id));
      if (const char* fixed = sim_track_name(e.track)) {
        tids.emplace(std::make_pair(pid, e.track), fixed);
      } else if (std::string family = sim_track_family(e.track); !family.empty()) {
        tids.emplace(std::make_pair(pid, e.track), std::move(family));
      }
    }
  }
  for (const auto& [pid, name] : pids) {
    emit_prefix();
    out << R"({"ph":"M","name":"process_name","pid":)" << pid
        << R"(,"tid":0,"args":{"name":")" << json_escape(name) << "\"}}";
  }
  for (const auto& [key, name] : tids) {
    emit_prefix();
    out << R"({"ph":"M","name":"thread_name","pid":)" << key.first << ",\"tid\":" << key.second
        << R"(,"args":{"name":")" << json_escape(name) << "\"}}";
  }

  // B/E discipline: a ring overwrite can drop a kBegin whose kEnd survived;
  // skip such orphans so every emitted E closes an emitted B.
  std::map<std::pair<int, int>, std::int64_t> depth;
  for (const Event& e : snapshot.events) {
    const int pid = chrome_pid(e);
    const auto key = std::make_pair(pid, static_cast<int>(e.track));
    if (e.phase == Phase::kEnd) {
      if (depth[key] == 0) continue;  // orphan close
      --depth[key];
    } else if (e.phase == Phase::kBegin) {
      ++depth[key];
    }

    emit_prefix();
    out << "{\"ph\":\"" << static_cast<char>(e.phase) << "\",\"pid\":" << pid
        << ",\"tid\":" << e.track << ",\"ts\":" << json_number(static_cast<double>(e.ts_ns) / 1e3)
        << ",\"cat\":\"" << json_escape(e.category) << "\",\"name\":\"" << json_escape(e.name)
        << '"';
    if (e.phase == Phase::kComplete) {
      out << ",\"dur\":" << json_number(static_cast<double>(e.dur_ns) / 1e3);
    }
    out << ',';
    if (e.phase == Phase::kCounter) {
      out << "\"args\":{\"" << json_escape(e.name) << "\":" << json_number(e.value) << '}';
    } else {
      append_args(out, e.args);
    }
    out << '}';
  }
  out << "\n]}\n";
  return out.str();
}

void write_chrome_trace(const std::string& path, const Tracer::Snapshot& snapshot) {
  const std::filesystem::path p{path};
  std::error_code ec;
  if (p.has_parent_path()) std::filesystem::create_directories(p.parent_path(), ec);
  std::ofstream out{p, std::ios::trunc};
  if (!out) throw std::runtime_error{"chrome trace: cannot open " + path};
  out << chrome_trace_json(snapshot);
  if (!out) throw std::runtime_error{"chrome trace: write failed for " + path};
}

}  // namespace rsd::obs

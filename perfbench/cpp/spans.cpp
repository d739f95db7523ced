#include "spans.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <fstream>
#include <mutex>
#include <utility>

namespace perfbench {
namespace {

std::atomic<bool> g_recording{false};
std::atomic<std::uint32_t> g_next_id{1};
std::atomic<std::uint32_t> g_next_thread{0};

std::mutex g_log_m;
std::vector<SpanRecord> g_log;  // guarded by g_log_m

thread_local SpanHandle t_current{};
thread_local std::uint32_t t_thread = g_next_thread.fetch_add(1, std::memory_order_relaxed);

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

}  // namespace

SpanHandle SpanHandle::current() { return t_current; }

void set_span_recording(bool on) {
  if (on) {
    // Grow ahead of the recording stretch, geometrically, so span
    // destructors inside timed ops rarely reallocate.
    constexpr std::size_t kHeadroom = 1u << 16;
    std::lock_guard lock{g_log_m};
    if (g_log.capacity() - g_log.size() < kHeadroom) {
      g_log.reserve(std::max(2 * g_log.capacity(), g_log.size() + kHeadroom));
    }
  }
  g_recording.store(on, std::memory_order_relaxed);
}

bool span_recording() { return g_recording.load(std::memory_order_relaxed); }

std::vector<SpanRecord> take_spans() {
  std::lock_guard lock{g_log_m};
  return std::exchange(g_log, {});
}

void set_current_op(std::uint32_t op) { t_current = SpanHandle{0, op}; }

Span::Span(const char* layer, const char* name) {
  if (!span_recording()) return;
  rec_.id = g_next_id.fetch_add(1, std::memory_order_relaxed);
  rec_.parent = t_current.id;
  rec_.op = t_current.op;
  rec_.thread = t_thread;
  rec_.layer = layer;
  rec_.name = name;
  t_current.id = rec_.id;
  rec_.start_ns = now_ns();
}

Span::~Span() {
  if (rec_.id == 0) return;
  rec_.end_ns = now_ns();
  t_current.id = rec_.parent;
  std::lock_guard lock{g_log_m};
  g_log.push_back(rec_);
}

SpanContext::SpanContext(SpanHandle parent) : saved_(t_current) { t_current = parent; }

SpanContext::~SpanContext() { t_current = saved_; }

std::map<std::string, double> self_seconds_by_layer(const std::vector<SpanRecord>& spans) {
  std::map<std::uint32_t, std::vector<std::pair<std::int64_t, std::int64_t>>> children;
  for (const SpanRecord& s : spans) {
    if (s.parent != 0) children[s.parent].emplace_back(s.start_ns, s.end_ns);
  }
  std::map<std::string, double> self;
  for (const SpanRecord& s : spans) {
    std::int64_t covered = 0;
    if (auto it = children.find(s.id); it != children.end()) {
      auto& iv = it->second;
      std::sort(iv.begin(), iv.end());
      std::int64_t cur_lo = 0;
      std::int64_t cur_hi = 0;
      bool open = false;
      for (auto [lo, hi] : iv) {
        lo = std::max(lo, s.start_ns);
        hi = std::min(hi, s.end_ns);
        if (hi <= lo) continue;
        if (open && lo <= cur_hi) {
          cur_hi = std::max(cur_hi, hi);
          continue;
        }
        if (open) covered += cur_hi - cur_lo;
        cur_lo = lo;
        cur_hi = hi;
        open = true;
      }
      if (open) covered += cur_hi - cur_lo;
    }
    self[s.layer] += static_cast<double>(s.end_ns - s.start_ns - covered) * 1e-9;
  }
  return self;
}

std::map<std::string, double> seconds_by_call(const std::vector<SpanRecord>& spans) {
  std::map<std::string, double> out;
  for (const SpanRecord& s : spans) {
    out[std::string{s.layer} + "." + s.name] += static_cast<double>(s.end_ns - s.start_ns) * 1e-9;
  }
  return out;
}

bool write_spans(const std::string& path, const std::vector<SpanRecord>& spans,
                 const std::string& host_json) {
  std::ofstream out{path};
  if (!out) return false;
  const std::int64_t t0 = spans.empty() ? 0
                                        : std::min_element(spans.begin(), spans.end(),
                                                           [](const auto& a, const auto& b) {
                                                             return a.start_ns < b.start_ns;
                                                           })->start_ns;
  out << "{\"host\":" << host_json << ",\"traceEvents\":[";
  bool first = true;
  for (const SpanRecord& s : spans) {
    out << (first ? "\n" : ",\n");
    first = false;
    out << "{\"name\":\"" << s.name << "\",\"cat\":\"" << s.layer << "\",\"ph\":\"X\",\"ts\":"
        << static_cast<double>(s.start_ns - t0) / 1e3
        << ",\"dur\":" << static_cast<double>(s.end_ns - s.start_ns) / 1e3
        << ",\"pid\":1,\"tid\":" << s.thread << ",\"args\":{\"id\":" << s.id
        << ",\"parent\":" << s.parent << ",\"op\":" << s.op << "}}";
  }
  out << "\n]}\n";
  return static_cast<bool>(out);
}

}  // namespace perfbench

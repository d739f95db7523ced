// Benchmark-side spans: one record per call the benchmark makes into a layer.
//
// Spans are opened around public calls into the src/ libraries, from the
// benchmark's side of the boundary; nothing inside the libraries is
// instrumented. Each record carries its layer, the call's name, host
// start/end (steady clock), the span that caused it, and the op it belongs
// to. Records stay in memory while the benchmark runs and are written out
// once at exit. When recording is off, opening a span costs one relaxed
// atomic load.
//
// Work fanned out on an exec::Pool runs on other threads; a task re-enters
// its caller's context with `SpanContext` so its spans keep the right
// parent and op id.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

struct SpanRecord {
  std::uint32_t id = 0;
  std::uint32_t parent = 0;  ///< 0: a root span.
  std::uint32_t op = 0;      ///< 0: set-up work outside any op.
  std::uint32_t thread = 0;  ///< Small per-thread index, 0 = first thread seen.
  const char* layer = "";
  const char* name = "";
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
};

/// Identity of the innermost open span on this thread.
struct SpanHandle {
  std::uint32_t id = 0;
  std::uint32_t op = 0;

  [[nodiscard]] static SpanHandle current();
};

/// Switch recording on or off. Records already taken are kept.
void set_span_recording(bool on);
[[nodiscard]] bool span_recording();

/// Move every record out of the log (in completion order).
[[nodiscard]] std::vector<SpanRecord> take_spans();

/// Start op `op` on this thread: spans opened until the next call belong
/// to it. 0 ends the op.
void set_current_op(std::uint32_t op);

/// RAII span. `layer` and `name` must be string literals (stored unowned).
class Span {
 public:
  Span(const char* layer, const char* name);
  ~Span();
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  SpanRecord rec_;
};

/// Adopt `parent` as this thread's open span for the scope's duration.
class SpanContext {
 public:
  explicit SpanContext(SpanHandle parent);
  ~SpanContext();
  SpanContext(const SpanContext&) = delete;
  SpanContext& operator=(const SpanContext&) = delete;

 private:
  SpanHandle saved_;
};

/// Self time per layer, in seconds: each span's duration minus the part of
/// its interval covered by its children (the union, so children running
/// in parallel on pool workers are not double-counted).
[[nodiscard]] std::map<std::string, double> self_seconds_by_layer(
    const std::vector<SpanRecord>& spans);

/// Inclusive seconds per span key "layer.name".
[[nodiscard]] std::map<std::string, double> seconds_by_call(const std::vector<SpanRecord>& spans);

/// Write the spans as a Chrome/Perfetto trace_event file, with `host_json`
/// (a JSON object) stored under "host". Returns false on I/O failure.
bool write_spans(const std::string& path, const std::vector<SpanRecord>& spans,
                 const std::string& host_json);

}  // namespace perfbench

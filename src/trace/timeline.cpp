#include "trace/timeline.hpp"

#include <algorithm>
#include <cstring>
#include <map>

namespace rsd::trace {

namespace {

bool is_category(const obs::Event& e, const char* category) {
  return e.category != nullptr && std::strcmp(e.category, category) == 0;
}

double arg_or(const obs::Event& e, const char* key, double fallback) {
  for (const obs::Arg& a : e.args) {
    if (a.numeric && a.key == key) return a.num;
  }
  return fallback;
}

bool op_track(std::int32_t track, gpu::OpKind& kind) {
  switch (track) {
    case obs::kTrackCompute: kind = gpu::OpKind::kKernel; return true;
    case obs::kTrackCopyH2D: kind = gpu::OpKind::kMemcpyH2D; return true;
    case obs::kTrackCopyD2H: kind = gpu::OpKind::kMemcpyD2H; return true;
    default: return false;
  }
}

}  // namespace

std::vector<std::int32_t> timeline_sim_ids(const obs::Tracer::Snapshot& snapshot) {
  std::vector<std::int32_t> ids;
  for (const obs::Event& e : snapshot.events) {
    gpu::OpKind kind;
    if (e.phase != obs::Phase::kComplete || e.sim_id <= snapshot.max_dropped_sim_id) continue;
    if (!is_category(e, "gpu") || !op_track(e.track, kind)) continue;
    ids.push_back(e.sim_id);
  }
  std::sort(ids.begin(), ids.end());
  ids.erase(std::unique(ids.begin(), ids.end()), ids.end());
  return ids;
}

Trace from_timeline(const obs::Tracer::Snapshot& snapshot, std::int32_t sim_id) {
  if (sim_id < 0) {
    const auto ids = timeline_sim_ids(snapshot);
    if (ids.empty()) return {};
    sim_id = ids.front();
  }

  Trace trace;
  // Injected slack re-attaches to the API call it followed: the slack
  // span's ts is exactly that call's end (see Context::finish_api).
  std::map<std::int64_t, SimDuration> slack_at;
  for (const obs::Event& e : snapshot.events) {
    if (e.sim_id != sim_id || e.phase != obs::Phase::kComplete) continue;
    if (e.track == obs::kTrackSlack && is_category(e, "slack")) {
      slack_at[e.ts_ns] += SimDuration{e.dur_ns};
    }
  }

  std::vector<gpu::OpRecord> ops;
  std::vector<gpu::ApiRecord> apis;
  for (const obs::Event& e : snapshot.events) {
    if (e.sim_id != sim_id || e.phase != obs::Phase::kComplete) continue;
    gpu::OpKind kind;
    if (is_category(e, "gpu") && op_track(e.track, kind)) {
      gpu::OpRecord op;
      op.kind = kind;
      op.name = e.name;
      op.context_id = static_cast<int>(arg_or(e, "context", 0));
      op.submit = SimTime{static_cast<std::int64_t>(arg_or(e, "submit_ns",
                                                           static_cast<double>(e.ts_ns)))};
      op.start = SimTime{e.ts_ns};
      op.end = SimTime{e.ts_ns + e.dur_ns};
      op.bytes = static_cast<Bytes>(arg_or(e, "bytes", 0));
      op.exposed_overhead = duration::microseconds(arg_or(e, "exposed_us", 0));
      op.wake_penalty = duration::microseconds(arg_or(e, "wake_us", 0));
      op.switch_penalty = duration::microseconds(arg_or(e, "switch_us", 0));
      ops.push_back(std::move(op));
    } else if (is_category(e, "gpu.api") && e.track >= obs::kTrackApiBase) {
      gpu::ApiRecord api;
      api.name = e.name;
      api.context_id = e.track - obs::kTrackApiBase;
      api.start = SimTime{e.ts_ns};
      api.end = SimTime{e.ts_ns + e.dur_ns};
      if (const auto it = slack_at.find(api.end.ns()); it != slack_at.end()) {
        api.slack_after = it->second;
      }
      apis.push_back(std::move(api));
    }
  }
  // The snapshot groups events by timeline track; a trace sink sees records
  // in completion order. Restore that order so the rebuilt trace matches a
  // directly captured one record for record.
  std::stable_sort(ops.begin(), ops.end(), [](const gpu::OpRecord& a, const gpu::OpRecord& b) {
    if (a.end.ns() != b.end.ns()) return a.end.ns() < b.end.ns();
    return a.submit.ns() < b.submit.ns();
  });
  std::stable_sort(apis.begin(), apis.end(),
                   [](const gpu::ApiRecord& a, const gpu::ApiRecord& b) {
                     if (a.end.ns() != b.end.ns()) return a.end.ns() < b.end.ns();
                     return a.start.ns() < b.start.ns();
                   });
  for (auto& op : ops) trace.add_op(std::move(op));
  for (auto& api : apis) trace.add_api(std::move(api));
  return trace;
}

}  // namespace rsd::trace

// Bridge from the obs timeline back into a `trace::Trace` — the closed
// loop of the observability design. The simulator's own emitted timeline
// (obs ring buffers → NSys-style ops CSV) must, when re-imported through
// `trace::import` and pushed through the paper's Eq. 1–3 model, predict
// the slack penalty the simulator actually exhibits. The paper could not
// run this self-consistency check on real hardware; the simulator can.
#pragma once

#include <cstdint>
#include <vector>

#include "obs/tracer.hpp"
#include "trace/trace.hpp"

namespace rsd::trace {

/// Simulated-timeline ids carrying at least one device op in the snapshot,
/// ascending — only those above `snapshot.max_dropped_sim_id`, the
/// simulations no ring overwrote any event of. Empty when the rings kept
/// no simulation whole.
[[nodiscard]] std::vector<std::int32_t> timeline_sim_ids(const obs::Tracer::Snapshot& snapshot);

/// Rebuild the device-op trace of one simulation from an obs snapshot.
/// `sim_id` < 0 selects the first whole simulation (timeline_sim_ids).
/// Ops are rebuilt from the "gpu" complete events on the engine tracks
/// (kind from the track, submit/context/bytes/exposed/wake from args); API
/// records from the "gpu.api" track, with injected slack re-attached from
/// the slack track.
/// The result round-trips through `Trace::ops_to_csv` / `parse_ops_csv`.
[[nodiscard]] Trace from_timeline(const obs::Tracer::Snapshot& snapshot,
                                  std::int32_t sim_id = -1);

}  // namespace rsd::trace

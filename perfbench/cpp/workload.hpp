// The benchmark's workload interface and the helpers the workloads share.
//
// A workload owns everything its ops need. `setup()` builds it from the
// seed (the binary calls it several times and times each call); `run_op()`
// executes one closed-loop op and checks its outputs against the
// workload's oracles. Ops walk a seed-shuffled deck, and the binary runs
// whole deck cycles only, so every run measures the same mix of op kinds
// whatever its seed or length.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <random>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

/// Per-layer sums a workload accumulates across ops and set-up (counts and
/// simulated quantities; host times come from spans).
using Tally = std::map<std::string, double>;

struct Options {
  std::uint64_t seed = 1;
  /// sim::ParallelEngine width (row512_step). 1: on a shared host a
  /// 4-wide engine's per-epoch barrier made the step swing from 1.0 to
  /// 3.3 s with neighbour load, while one thread held 1.28-1.32 s.
  int sim_threads = 1;
  /// exec::Pool width: min(2, nproc). An op fans out only 3-4 short tasks,
  /// and on a shared host a 4-wide pool made op latency swing about 2x
  /// with neighbour load where a 2-wide one moved about 1.3x.
  int pool_width = 1;
  /// Self-check: replace one pinned row digest with a wrong value.
  bool corrupt_digest = false;
};

struct OpResult {
  bool ok = true;
  std::string detail;  ///< Why an oracle rejected the op.
};

class Workload {
 public:
  virtual ~Workload() = default;

  /// Build every input from the seed; replaces the previous set-up.
  virtual void setup(Tally& tally) = 0;
  /// Ops per deck cycle.
  [[nodiscard]] virtual std::size_t deck_size() const = 0;
  /// Execute the op in deck slot `slot` (< deck_size()). Returns ok=false
  /// when an oracle rejects the output; throws on errors.
  virtual OpResult run_op(std::size_t slot, Tally& tally) = 0;
  /// Short label of the op in `slot` (for failure reports).
  [[nodiscard]] virtual std::string op_label(std::size_t slot) const = 0;
};

[[nodiscard]] std::unique_ptr<Workload> make_row512_step(const Options& options);
[[nodiscard]] std::unique_ptr<Workload> make_fabric_mix(const Options& options);
[[nodiscard]] std::unique_ptr<Workload> make_trace_to_bounds(const Options& options);

/// Seeded Fisher-Yates shuffle (independent of the standard library's
/// std::shuffle algorithm, so a seed means the same deck everywhere).
template <typename T>
void seeded_shuffle(std::vector<T>& items, std::mt19937_64& rng) {
  for (std::size_t i = items.size(); i > 1; --i) {
    const std::size_t j = static_cast<std::size_t>(rng() % i);
    std::swap(items[i - 1], items[j]);
  }
}

/// Uniform pick from a list.
template <typename T>
const T& seeded_pick(const std::vector<T>& items, std::mt19937_64& rng) {
  return items[static_cast<std::size_t>(rng() % items.size())];
}

}  // namespace perfbench

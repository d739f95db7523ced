// Persistent worker team for epoch-style fan-out (`rsd::exec::Team`).
//
// `Pool` is built for coarse batches: each `run_batch` allocates a batch
// object, takes a mutex, and wakes sleeping workers through a condition
// variable — microseconds of overhead that vanish across an experiment but
// dominate when the caller synchronizes thousands of times per second.
// The partitioned discrete-event engine (sim/conservative.hpp) does
// exactly that: one barrier per conservative epoch, often with only a few
// microseconds of simulated work between barriers.
//
// `Team` keeps a fixed set of worker threads parked on a C++20 atomic
// wait (a futex on Linux) and reuses them for every `run()` call:
//
//   * `run(n, fn)` publishes the job, bumps the epoch counter, and
//     participates in the claim loop itself (like Pool, the caller is a
//     full worker, so `Team{1}` owns no threads and degrades to a serial
//     loop);
//   * items are claimed with a single fetch_add — no per-epoch allocation,
//     no mutex, no condition variable;
//   * `run()` returns only after every worker has retired from the epoch,
//     so the job, and anything it wrote, is safely reusable the moment
//     `run()` returns (release/acquire through the retirement counter);
//   * the caller's writes before `run()` are visible to workers through
//     the epoch counter (release/acquire), making back-to-back epochs a
//     valid synchronization chain for data handed between partitions.
//
// `fn` must not throw: Team has no exception channel (the engine captures
// failures inside simulated tasks instead). Determinism note: Team decides
// only WHICH thread runs an item, never the item set or any ordering a
// caller could observe — callers must keep items independent within one
// epoch, which the conservative engine guarantees by construction.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <thread>
#include <vector>

namespace rsd::exec {

/// Worker count for one partitioned simulation: the `RSD_SIM_THREADS`
/// environment variable when set (an integer >= 1; anything else throws
/// rsd::Error{kInvalidArgument}, see rsd::env_count), else 1 (a
/// sequential engine). Deliberately NOT hardware concurrency: parallel
/// intra-simulation execution is opt-in, while `RSD_THREADS` (cross-run
/// fan-out, see pool.hpp) defaults wide. An explicit `--sim-threads` /
/// `ParallelEngine::Options::threads` takes precedence over the env var.
[[nodiscard]] int default_sim_thread_count();

class Team {
 public:
  /// Total execution width including the calling thread; `threads - 1`
  /// workers are spawned and parked immediately.
  explicit Team(int threads = default_sim_thread_count());
  ~Team();
  Team(const Team&) = delete;
  Team& operator=(const Team&) = delete;

  [[nodiscard]] int size() const { return size_; }

  /// Run `fn(i)` for i in [0, n) across the team; returns when every item
  /// has executed and every worker has retired from the epoch. `fn` must
  /// not throw and items must be mutually independent.
  void run(std::size_t n, const std::function<void(std::size_t)>& fn);

  /// Seeded wakeup jitter for determinism stress tests: every participant
  /// inserts a small pseudo-random busy-wait before each claim, scrambling
  /// the item -> thread assignment between runs. 0 disables (default).
  void set_claim_jitter(std::uint64_t seed) {
    jitter_seed_.store(seed, std::memory_order_relaxed);
  }

 private:
  void worker_loop(std::uint32_t worker_index);

  /// Claim-and-execute until the epoch's items are exhausted.
  void claim(const std::function<void(std::size_t)>& fn, std::uint64_t jitter_stream);

  int size_ = 1;
  std::vector<std::thread> workers_;

  // Epoch protocol. `epoch_` is the publish/subscribe point: the caller
  // writes job_/items_/next_ then release-increments it; workers acquire
  // it before touching anything else. `retired_` is the reverse edge.
  std::atomic<std::uint64_t> epoch_{0};
  std::atomic<bool> stop_{false};
  const std::function<void(std::size_t)>* job_ = nullptr;
  std::size_t items_ = 0;
  std::atomic<std::size_t> next_{0};
  std::atomic<int> retired_{0};
  std::atomic<std::uint64_t> jitter_seed_{0};
};

}  // namespace rsd::exec

// Parallel experiment execution (`rsd::exec`).
//
// Every experiment in this repo is an independent, single-threaded,
// bit-deterministic discrete-event simulation: a fresh `sim::Scheduler` and
// `gpu::Device` per run, no shared mutable state. That makes *cross-run*
// parallelism free of determinism hazards — the only requirement is that
// results are assembled in input order, never completion order. The same
// pool runs the data-parallel loops of `rsd::lj` and `rsd::nn`, chunked so
// that their results do not depend on its width.
//
// `Pool` is a shared-queue, caller-participating thread pool:
//
//   * `parallel_map(items, fn)` returns results indexed by input position,
//     so every downstream CSV byte is identical regardless of which worker
//     finished first;
//   * exceptions are captured per item and the one with the LOWEST input
//     index is rethrown after the batch drains (all items still run);
//   * a pool of size 1 degrades to a plain serial loop on the caller's
//     thread — no worker threads, no synchronization;
//   * the submitting thread always works on its own batch, so nested
//     `parallel_map` calls from inside a worker cannot deadlock even when
//     every worker is busy.
//
// Pool size defaults to `RSD_THREADS` (env) or hardware concurrency.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <deque>
#include <exception>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <thread>
#include <type_traits>
#include <vector>

#include "core/env.hpp"

namespace rsd::exec {

/// Worker count used by `Pool::global()`: the `RSD_THREADS` environment
/// variable when set (an integer >= 1; anything else throws
/// rsd::Error{kInvalidArgument}, see rsd::env_count), else hardware
/// concurrency, always at least 1.
[[nodiscard]] inline int default_thread_count() {
  if (const auto n = env_count("RSD_THREADS")) return *n;
  const unsigned hw = std::thread::hardware_concurrency();
  return hw >= 1 ? static_cast<int>(hw) : 1;
}

class Pool {
 public:
  explicit Pool(int threads = default_thread_count());
  ~Pool();
  Pool(const Pool&) = delete;
  Pool& operator=(const Pool&) = delete;

  /// Total execution width (worker threads + the submitting caller).
  [[nodiscard]] int size() const { return size_; }

  /// Process-wide pool, sized once from `RSD_THREADS` / hardware
  /// concurrency on first use.
  [[nodiscard]] static Pool& global();

  /// Apply `fn` to every item; the result vector is indexed by input
  /// position. With pool size 1 (or <= 1 item) this is a serial loop.
  template <typename T, typename Fn>
  auto parallel_map(const std::vector<T>& items, Fn&& fn)
      -> std::vector<std::decay_t<std::invoke_result_t<Fn&, const T&>>> {
    using R = std::decay_t<std::invoke_result_t<Fn&, const T&>>;
    std::vector<std::optional<R>> slots(items.size());
    parallel_for(items.size(), [&](std::size_t i) { slots[i].emplace(fn(items[i])); });
    std::vector<R> out;
    out.reserve(slots.size());
    for (auto& s : slots) out.push_back(std::move(*s));
    return out;
  }

  /// Run `fn(i)` for i in [0, n). Same ordering/exception contract as
  /// `parallel_map`, without materializing results.
  template <typename Fn>
  void parallel_for(std::size_t n, Fn&& fn) {
    if (size_ == 1 || n <= 1) {
      for (std::size_t i = 0; i < n; ++i) fn(i);
      return;
    }
    std::vector<std::exception_ptr> errors(n);
    run_batch(n, [&](std::size_t i) {
      try {
        fn(i);
      } catch (...) {
        errors[i] = std::current_exception();
      }
    });
    for (const auto& e : errors) {
      if (e) std::rethrow_exception(e);
    }
  }

 private:
  /// One fan-out: a claim counter over [0, count) shared by the caller and
  /// any workers that pick the batch up from the queue.
  struct Batch {
    const std::function<void(std::size_t)>* run = nullptr;
    std::size_t count = 0;
    std::atomic<std::size_t> next{0};
    std::atomic<std::size_t> done{0};
    std::mutex m;
    std::condition_variable cv;
  };

  /// Publish a batch, help execute it, and block until every claimed item
  /// has finished. `run` must stay valid for the duration of the call
  /// (guaranteed: we return only after done == count).
  void run_batch(std::size_t count, const std::function<void(std::size_t)>& run);

  /// Claim and execute items until the batch's counter is exhausted.
  static void help(Batch& batch);

  void worker_loop();

  int size_ = 1;
  std::vector<std::thread> workers_;
  std::mutex queue_m_;
  std::condition_variable queue_cv_;
  std::deque<std::shared_ptr<Batch>> queue_;
  bool stop_ = false;
};

}  // namespace rsd::exec

#include "exec/team.hpp"

#include <algorithm>

#include "core/env.hpp"
#include "obs/metrics.hpp"

namespace rsd::exec {

int default_sim_thread_count() { return env_count("RSD_SIM_THREADS").value_or(1); }

Team::Team(int threads) : size_(std::max(1, threads)) {
  obs::Registry::global().gauge("exec.team_size").set(static_cast<double>(size_));
  workers_.reserve(static_cast<std::size_t>(size_ - 1));
  for (int i = 0; i < size_ - 1; ++i) {
    workers_.emplace_back([this, i] { worker_loop(static_cast<std::uint32_t>(i) + 1); });
  }
}

Team::~Team() {
  if (!workers_.empty()) {
    stop_.store(true, std::memory_order_release);
    epoch_.fetch_add(1, std::memory_order_release);
    epoch_.notify_all();
    for (auto& w : workers_) w.join();
  }
}

namespace {

/// splitmix64 step — cheap, stateless-per-call jitter stream.
[[nodiscard]] std::uint64_t mix64(std::uint64_t& s) {
  s += 0x9e3779b97f4a7c15ULL;
  std::uint64_t z = s;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

}  // namespace

void Team::claim(const std::function<void(std::size_t)>& fn, std::uint64_t jitter_stream) {
  for (;;) {
    if (jitter_stream != 0) {
      // Busy-wait a pseudo-random beat so which participant wins the next
      // fetch_add varies run to run — the determinism stress tests assert
      // simulation output is identical anyway.
      const std::uint64_t spins = mix64(jitter_stream) & 0x3ff;
      for (std::uint64_t k = 0; k < spins; ++k) {
#if defined(__x86_64__) || defined(__i386__)
        __builtin_ia32_pause();
#else
        std::this_thread::yield();
#endif
      }
    }
    const std::size_t i = next_.fetch_add(1, std::memory_order_relaxed);
    if (i >= items_) return;
    fn(i);
  }
}

void Team::run(std::size_t n, const std::function<void(std::size_t)>& fn) {
  if (workers_.empty()) {
    for (std::size_t i = 0; i < n; ++i) fn(i);
    return;
  }
  job_ = &fn;
  items_ = n;
  next_.store(0, std::memory_order_relaxed);
  retired_.store(0, std::memory_order_relaxed);
  const std::uint64_t e = epoch_.fetch_add(1, std::memory_order_release) + 1;
  epoch_.notify_all();

  const std::uint64_t seed = jitter_seed_.load(std::memory_order_relaxed);
  claim(fn, seed != 0 ? seed ^ (e * 0xd1b54a32d192ed03ULL) : 0);

  // Wait for every worker to retire: afterwards no thread can touch job_
  // or the caller's data until the next epoch is published.
  const int n_workers = static_cast<int>(workers_.size());
  int r = retired_.load(std::memory_order_acquire);
  while (r != n_workers) {
    retired_.wait(r, std::memory_order_acquire);
    r = retired_.load(std::memory_order_acquire);
  }
}

void Team::worker_loop(std::uint32_t worker_index) {
  std::uint64_t seen = 0;
  for (;;) {
    epoch_.wait(seen, std::memory_order_acquire);
    const std::uint64_t e = epoch_.load(std::memory_order_acquire);
    if (e == seen) continue;  // spurious wake
    seen = e;
    if (stop_.load(std::memory_order_acquire)) return;
    std::uint64_t seed = jitter_seed_.load(std::memory_order_relaxed);
    claim(*job_, seed != 0 ? mix64(seed) ^ (e * 0x9e6c63d0676a9a99ULL) ^ worker_index : 0);
    retired_.fetch_add(1, std::memory_order_release);
    retired_.notify_all();
  }
}

}  // namespace rsd::exec

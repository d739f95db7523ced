#include "proxy/sweep_cache.hpp"

#include <unistd.h>

#include <atomic>
#include <charconv>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <optional>
#include <sstream>
#include <string>
#include <system_error>

#include "core/paths.hpp"
#include "exec/pool.hpp"
#include "obs/tracer.hpp"

namespace rsd::proxy {

namespace {

/// Count a cache outcome: per-instance counter, global registry mirror, and
/// a timeline instant when tracing is on.
void record_outcome(obs::Counter& local, const char* metric, const char* event) {
  local.add(1);
  obs::Registry::global().counter(metric).add(1);
  if (obs::Tracer::enabled()) obs::Tracer::instance().instant("proxy", event);
}

namespace fs = std::filesystem;

/// FNV-1a, folded over a canonical text serialization. Stable across
/// platforms (everything hashed is integers or shortest-round-trip text).
class Fingerprint {
 public:
  void add(const std::string& s) {
    for (const unsigned char c : s) {
      h_ ^= c;
      h_ *= 0x100000001b3ULL;
    }
    add_byte(0x1f);  // field separator
  }
  void add(std::int64_t v) { add(std::to_string(v)); }
  void add(std::uint64_t v) { add(std::to_string(v)); }
  void add(double v) {
    char buf[40];
    std::snprintf(buf, sizeof buf, "%a", v);
    add(std::string{buf});
  }
  void add(SimDuration d) { add(d.ns()); }
  [[nodiscard]] std::uint64_t value() const { return h_; }

 private:
  void add_byte(unsigned char c) {
    h_ ^= c;
    h_ *= 0x100000001b3ULL;
  }
  std::uint64_t h_ = 0xcbf29ce484222325ULL;
};

/// Exact double round-trip: hexfloat out, strtod back in.
std::string hex_double(double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%a", v);
  return std::string{buf};
}

constexpr const char* kHeader =
    "matrix_n,threads,slack_ns,normalized_hex,matrix_bytes,kernel_ns,iterations,loop_ns,"
    "no_slack_ns,calls_per_thread";

/// One whole decimal cell; false on an empty, torn or out-of-range cell.
template <typename T>
bool parse_cell(const std::string& cell, T& out) {
  const char* end = cell.data() + cell.size();
  const auto [ptr, ec] = std::from_chars(cell.data(), end, out);
  return !cell.empty() && ec == std::errc{} && ptr == end;
}

bool parse_cell(const std::string& cell, SimDuration& out) {
  std::int64_t ns = 0;
  if (!parse_cell(cell, ns)) return false;
  out = SimDuration{ns};
  return true;
}

/// A whole hexfloat cell, as hex_double writes it.
bool parse_hex_cell(const std::string& cell, double& out) {
  char* end = nullptr;
  out = std::strtod(cell.c_str(), &end);
  return !cell.empty() && end == cell.c_str() + cell.size();
}

/// The key of one stored sweep point.
struct Cell {
  std::int64_t matrix_n;
  int threads;
  SimDuration slack;
};

/// The cells a fresh sweep of `config` stores, in its order: every slack of
/// every (size, threads) pair that fits memory.
std::vector<Cell> sweep_cells(const ProxyRunner& runner, const SweepConfig& config) {
  std::vector<Cell> cells;
  for (const std::int64_t n : config.matrix_sizes) {
    for (const int threads : config.thread_counts) {
      if (!config_fits(runner.device_params(), n, threads)) continue;
      for (const SimDuration slack : config.slacks) cells.push_back({n, threads, slack});
    }
  }
  return cells;
}

/// Load a persisted sweep. Nullopt unless the file is whole: the header,
/// then exactly one parseable row per cell of `cells`, in order — a file
/// cut at a line boundary, torn mid-line or from another grid is rebuilt,
/// never half-used.
std::optional<std::vector<SweepPoint>> load_entry(const fs::path& file,
                                                  const std::vector<Cell>& cells) {
  std::ifstream in{file};
  std::string line;
  if (!in || !std::getline(in, line) || line != kHeader) return std::nullopt;
  std::vector<SweepPoint> points;
  points.reserve(cells.size());
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    if (points.size() == cells.size()) return std::nullopt;  // extra rows
    std::istringstream row_in{line};
    std::string cell;
    std::vector<std::string> row;
    while (std::getline(row_in, cell, ',')) row.push_back(cell);
    if (row.size() != 10) return std::nullopt;
    SweepPoint p;
    ProxyResult& r = p.result;
    const bool ok =
        parse_cell(row[0], p.matrix_n) && parse_cell(row[1], p.threads) &&
        parse_cell(row[2], p.slack) && parse_hex_cell(row[3], p.normalized_runtime) &&
        parse_cell(row[4], r.matrix_bytes) && parse_cell(row[5], r.kernel_duration) &&
        parse_cell(row[6], r.iterations) && parse_cell(row[7], r.loop_runtime) &&
        parse_cell(row[8], r.no_slack_time) && parse_cell(row[9], r.cuda_calls_per_thread);
    const Cell& want = cells[points.size()];
    if (!ok || p.matrix_n != want.matrix_n || p.threads != want.threads || p.slack != want.slack) {
      return std::nullopt;
    }
    r.matrix_n = p.matrix_n;
    r.threads = p.threads;
    r.slack = p.slack;
    r.fits_memory = true;
    points.push_back(std::move(p));
  }
  if (points.size() != cells.size()) return std::nullopt;
  return points;
}

}  // namespace

SweepCache::SweepCache(fs::path dir) : dir_(std::move(dir)) {}

SweepCache& SweepCache::global() {
  static SweepCache cache{results_dir() / ".cache"};
  return cache;
}

std::uint64_t SweepCache::fingerprint(const ProxyRunner& runner, const SweepConfig& config) {
  Fingerprint fp;
  fp.add(std::string{"sweep-v1"});

  const gpu::DeviceParams& dev = runner.device_params();
  fp.add(dev.name);
  fp.add(dev.matmul_tflops);
  fp.add(dev.kernel_base);
  fp.add(dev.kernel_setup);
  fp.add(dev.copy_setup);
  fp.add(dev.wake_t0);
  fp.add(dev.wake_alpha);
  fp.add(dev.wake_max);
  fp.add(dev.process_switch);
  fp.add(dev.memory_capacity);

  const interconnect::LinkParams& link = runner.link_params();
  fp.add(link.name);
  fp.add(link.latency);
  fp.add(link.bandwidth_gib_s);

  fp.add(static_cast<std::int64_t>(config.matrix_sizes.size()));
  for (const std::int64_t n : config.matrix_sizes) fp.add(n);
  fp.add(static_cast<std::int64_t>(config.thread_counts.size()));
  for (const int t : config.thread_counts) fp.add(static_cast<std::int64_t>(t));
  fp.add(static_cast<std::int64_t>(config.slacks.size()));
  for (const SimDuration s : config.slacks) fp.add(s);
  fp.add(config.target_compute);
  return fp.value();
}

std::vector<SweepPoint> SweepCache::get_or_run(const ProxyRunner& runner,
                                               const SweepConfig& config) {
  return get_or_run(runner, config, exec::Pool::global());
}

std::vector<SweepPoint> SweepCache::get_or_run(const ProxyRunner& runner,
                                               const SweepConfig& config, exec::Pool& pool) {
  const std::uint64_t fp = fingerprint(runner, config);
  char name[32];
  std::snprintf(name, sizeof name, "%016" PRIx64 ".csv", fp);
  const fs::path file = dir_ / name;

  {
    std::lock_guard<std::mutex> lk(m_);
    if (const auto it = memory_.find(fp); it != memory_.end()) {
      record_outcome(memory_hits_, "sweep_cache.memory_hits", "sweep_cache.memory_hit");
      return it->second;
    }
  }

  // Disk hit: rebuild the points. The sweep only ever stores points whose
  // configuration fits memory and never carries a trace, so the scalar
  // fields are the complete state. Anything else falls through and is
  // rebuilt.
  if (auto loaded = load_entry(file, sweep_cells(runner, config))) {
    std::lock_guard<std::mutex> lk(m_);
    record_outcome(disk_loads_, "sweep_cache.disk_loads", "sweep_cache.disk_load");
    return memory_.try_emplace(fp, std::move(*loaded)).first->second;
  }

  std::vector<SweepPoint> points = run_slack_sweep(runner, config, pool);

  std::error_code ec;
  fs::create_directories(dir_, ec);
  if (!ec) {
    // Write-then-rename so a crashed bench never leaves a torn cache file.
    // The temp name is this writer's own: tests, the fleet and perfbench
    // may fill one cache directory at once, and rename is atomic.
    static std::atomic<std::uint64_t> writes{0};
    const fs::path tmp = file.string() + "." + std::to_string(::getpid()) + "." +
                         std::to_string(writes.fetch_add(1)) + ".tmp";
    std::ofstream out{tmp, std::ios::trunc};
    if (out) {
      out << kHeader << '\n';
      for (const auto& p : points) {
        out << p.matrix_n << ',' << p.threads << ',' << p.slack.ns() << ','
            << hex_double(p.normalized_runtime) << ',' << p.result.matrix_bytes << ','
            << p.result.kernel_duration.ns() << ',' << p.result.iterations << ','
            << p.result.loop_runtime.ns() << ',' << p.result.no_slack_time.ns() << ','
            << p.result.cuda_calls_per_thread << '\n';
      }
      out.close();
      if (out) fs::rename(tmp, file, ec);
      if (ec) fs::remove(tmp, ec);
    }
  }

  std::lock_guard<std::mutex> lk(m_);
  record_outcome(sweeps_computed_, "sweep_cache.sweeps_computed", "sweep_cache.sweep_computed");
  return memory_.try_emplace(fp, std::move(points)).first->second;
}

void SweepCache::clear_memory() {
  std::lock_guard<std::mutex> lk(m_);
  memory_.clear();
}

}  // namespace rsd::proxy

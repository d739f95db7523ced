// perf_par_des: partitioned parallel DES engine throughput — the numbers
// behind BENCH_pardes.json.
//
// Three sections:
//   1. Partition-count x thread-count sweep of a synthetic delay-loop
//      workload (64 partitions of concurrent 1us delay loops, no
//      cross-partition traffic, so no lookahead edges and one epoch):
//      aggregate events/s is the headline scaling figure, measured as
//      ParallelEngine::executed_events() over wall time.
//   2. The same sweep over a message-heavy token ring whose lookahead
//      graph is the ring at each edge's exact forwarding delay: records
//      the deterministic epoch count and lookahead-stall fraction
//      (stalled partition-epochs over partition-epochs).
//   3. A 512-GPU PartitionedRow training step (ring allreduce over the
//      row fabric) — the paper-scale composition the partitioned engine
//      exists for — with its deterministic digest.
//
// The CSV records only deterministic quantities (events, epochs, stalls,
// messages, digests): every tracked column is byte-identical at any
// thread count, which tests/par_des_determinism_test.cpp asserts. Wall
// rates vary by machine and go to the narration stream.
#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "core/csv.hpp"
#include "core/names.hpp"
#include "core/table.hpp"
#include "core/units.hpp"
#include "gpusim/row.hpp"
#include "harness/context.hpp"
#include "harness/experiment.hpp"
#include "sim/conservative.hpp"
#include "sim/partition.hpp"
#include "sim/task.hpp"

namespace {

double seconds_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
}

struct SweepCell {
  int partitions = 0;
  int threads = 0;
  std::uint64_t events = 0;
  std::uint64_t epochs = 0;
  std::uint64_t messages = 0;
  std::uint64_t stalled = 0;
  double wall_s = 0.0;

  [[nodiscard]] double events_per_s() const {
    return wall_s > 0.0 ? static_cast<double>(events) / wall_s : 0.0;
  }
  [[nodiscard]] double stall_fraction() const {
    const double denom = static_cast<double>(epochs) * partitions;
    return denom > 0.0 ? static_cast<double>(stalled) / denom : 0.0;
  }
};

/// Delay-loop cell: `tasks_per_partition` concurrent 1us delay loops per
/// partition, no messages. Nothing crosses partitions, so the engine
/// declares no lookahead edge and drains every partition in one epoch:
/// the cell measures raw partitioned event throughput.
SweepCell run_delay_loop(int partitions, int threads, int hops) {
  using namespace rsd::literals;
  constexpr int kTasksPerPartition = 4;
  rsd::sim::ParallelEngine eng{partitions, {}, {.threads = threads}};
  for (int p = 0; p < partitions; ++p) {
    auto& part = eng.partition(static_cast<rsd::sim::PartitionId>(p));
    for (int t = 0; t < kTasksPerPartition; ++t) {
      part.spawn([&] {
        return [](int n) -> rsd::sim::Task<> {
          for (int i = 0; i < n; ++i) co_await rsd::sim::delay(1_us);
        }(hops);
      });
    }
  }
  const auto start = std::chrono::steady_clock::now();
  eng.run();
  SweepCell cell;
  cell.partitions = partitions;
  cell.threads = threads;
  cell.wall_s = seconds_since(start);
  cell.events = eng.executed_events();
  cell.epochs = eng.epochs();
  cell.messages = eng.messages_delivered();
  cell.stalled = eng.stalled_partition_epochs();
  return cell;
}

/// Token-ring cell: every partition forwards tokens to its ring neighbor,
/// so partitions genuinely wait on each other and the stall accounting is
/// exercised. The lookahead graph is the ring, each edge at its exact
/// bound: partition p always forwards with delay 1 + p%4 us (partition
/// counts are multiples of 4, so hop%4 == p%4), which is the kind of
/// per-link knowledge a topology hands the engine. Horizons are
/// distance-aware: partition j waits on its predecessor's clock plus the
/// declared edge bound, not on the global minimum.
SweepCell run_token_ring(int partitions, int threads, int hops_per_token) {
  std::vector<rsd::sim::LookaheadEdge> edges;
  edges.reserve(static_cast<std::size_t>(partitions));
  for (int p = 0; p < partitions; ++p) {
    edges.push_back(rsd::sim::LookaheadEdge{
        static_cast<rsd::sim::PartitionId>(p),
        static_cast<rsd::sim::PartitionId>((p + 1) % partitions),
        rsd::duration::microseconds(1.0 + p % 4)});
  }
  rsd::sim::ParallelEngine eng{partitions, edges, {.threads = threads}};

  struct Token {
    rsd::sim::ParallelEngine* eng;
    int partitions;
    int hop;
    int remaining;

    void operator()() const {
      if (remaining == 0) return;
      const auto here = static_cast<rsd::sim::PartitionId>(hop % partitions);
      const auto next = static_cast<rsd::sim::PartitionId>((hop + 1) % partitions);
      // Hop delays of 1..4 us desynchronize the tokens: partitions
      // regularly hold work beyond the horizon, so the stall accounting is
      // exercised for real.
      const auto delay = rsd::duration::microseconds(1.0 + hop % 4);
      eng->partition(here).send(next, delay, Token{eng, partitions, hop + 1, remaining - 1});
    }
  };

  for (int p = 0; p < partitions; ++p) {
    eng.partition(static_cast<rsd::sim::PartitionId>(p))
        .post(rsd::SimDuration::zero(),
              Token{&eng, partitions, p, hops_per_token});
  }
  const auto start = std::chrono::steady_clock::now();
  eng.run();
  SweepCell cell;
  cell.partitions = partitions;
  cell.threads = threads;
  cell.wall_s = seconds_since(start);
  cell.events = eng.executed_events();
  cell.epochs = eng.epochs();
  cell.messages = eng.messages_delivered();
  cell.stalled = eng.stalled_partition_epochs();
  return cell;
}

}  // namespace

RSD_EXPERIMENT(perf_par_des, "perf_par_des", "micro",
               "Partitioned parallel DES engine: delay-loop and token-ring sweeps over "
               "partition count x thread count (aggregate events/s, lookahead-stall "
               "fraction), plus a 512-GPU PartitionedRow training step. Deterministic "
               "columns only in the CSV; see BENCH_pardes.json for wall rates.") {
  using namespace rsd;
  using namespace rsd::literals;

  CsvWriter csv;
  csv.row("section", "partitions", "threads", "events", "epochs", "messages",
          "stalled_partition_epochs", "stall_fraction");

  const std::vector<int> partition_counts{16, 64};
  const std::vector<int> thread_counts{1, 2, 4, 8};

  Table sweep_table{{"Workload", "Parts", "Threads", "Events", "Stall %", "Events/s"}};
  const auto record = [&](const char* section, const SweepCell& cell) {
    csv.row(section, cell.partitions, cell.threads, cell.events, cell.epochs, cell.messages,
            cell.stalled, cell.stall_fraction());
    sweep_table.add_row_vec({section, std::to_string(cell.partitions),
                             std::to_string(cell.threads), std::to_string(cell.events),
                             fmt_fixed(cell.stall_fraction() * 100.0, 2),
                             fmt_fixed(cell.events_per_s() / 1e6, 1) + " M"});
  };
  std::vector<SweepCell> delay_cells;
  for (const int partitions : partition_counts) {
    for (const int threads : thread_counts) {
      // Constant total work per partition count so cells are comparable.
      const int hops = 100'000 / (partitions / 16);
      delay_cells.push_back(run_delay_loop(partitions, threads, hops));
      record("delay_loop", delay_cells.back());
    }
  }

  // `token_ring_matrix`: the token ring on its lookahead-edge matrix.
  for (const int partitions : partition_counts) {
    for (const int threads : thread_counts) {
      record("token_ring_matrix", run_token_ring(partitions, threads, 2'000));
    }
  }

  // --- 3. 512-GPU row step (the paper-scale composition) ---------------
  gpu::RowParams row_params;
  row_params.gpus = 512;
  row_params.sim_threads = ctx.sim_threads();
  gpu::PartitionedRow row{row_params};

  gpu::RowTraining training;
  const NameRef fwd{"row_fwd"};
  const NameRef bwd{"row_bwd"};
  training.kernels = {gpu::RowKernel{fwd, 50_us}, gpu::RowKernel{bwd, 100_us}};
  training.submit_cost = 2_us;
  training.gradient_bytes = 32 * kMiB;
  training.steps = 1;

  const auto row_start = std::chrono::steady_clock::now();
  const SimTime row_finish = row.run_training(training);
  const double row_wall_s = seconds_since(row_start);
  auto& row_eng = row.engine();
  csv.row("row512_finish_ns", row_eng.size(), 0, row_finish.ns(), row_eng.epochs(),
          row_eng.messages_delivered(), row_eng.stalled_partition_epochs(),
          std::to_string(row.digest()));

  // Headline: best aggregate rate on the 64-partition delay loop.
  double best_rate = 0.0;
  int best_threads = 1;
  double seq_rate = 0.0;
  for (const SweepCell& c : delay_cells) {
    if (c.partitions != 64) continue;
    if (c.threads == 1) seq_rate = c.events_per_s();
    if (c.events_per_s() > best_rate) {
      best_rate = c.events_per_s();
      best_threads = c.threads;
    }
  }

  sweep_table.print(ctx.out());
  Table row_table{{"Row metric", "Value"}};
  row_table.add_row_vec({"GPUs", std::to_string(row_params.gpus)});
  row_table.add_row_vec({"Partitions (one per chassis)", std::to_string(row_eng.size())});
  row_table.add_row_vec({"Engine threads", std::to_string(row_eng.threads())});
  row_table.add_row_vec({"Simulated step finish", format_duration(row_finish - SimTime::zero())});
  row_table.add_row_vec({"Messages exchanged", std::to_string(row_eng.messages_delivered())});
  row_table.add_row_vec({"Wall time", fmt_fixed(row_wall_s, 2) + " s"});
  row_table.add_row_vec({"Horizon gain",
                         fmt_fixed(static_cast<double>(row_eng.horizon_gain_ns()) / 1e6, 2) +
                             " ms"});
  row_table.add_row_vec({"Digest", std::to_string(row.digest())});
  row_table.print(ctx.out());
  ctx.out() << "[perf_par_des] 64-partition delay loop: "
            << fmt_fixed(seq_rate / 1e6, 1) << " M events/s sequential, best "
            << fmt_fixed(best_rate / 1e6, 1) << " M events/s at " << best_threads
            << " threads (" << fmt_fixed(best_rate / seq_rate, 2) << "x)\n";

  ctx.save_csv("perf_par_des", csv);
}

#include "sim/conservative.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

#include "sim/partition.hpp"
#include "sim/task.hpp"

namespace rsd::sim {
namespace {

using namespace rsd::literals;

// Per-partition event log: (simulated ns, tag). Partitions only ever touch
// their own log, so logging is race-free inside parallel epochs and the
// full set of logs is a deterministic fingerprint of the simulation.
struct Log {
  std::vector<std::pair<std::int64_t, int>> entries;
};

/// Lookahead edges both ways between partitions 0 and 1.
std::vector<LookaheadEdge> pair_edges(SimDuration lookahead) {
  return {LookaheadEdge{0, 1, lookahead}, LookaheadEdge{1, 0, lookahead}};
}

TEST(CrossCall, InvokesInlinePayload) {
  int hits = 0;
  int* p = &hits;
  CrossCall call{[p] { ++*p; }};
  EXPECT_TRUE(static_cast<bool>(call));
  call();
  call();
  EXPECT_EQ(hits, 2);
  EXPECT_FALSE(static_cast<bool>(CrossCall{}));
}

TEST(ParallelEngine, EmptyRunTerminates) {
  ParallelEngine eng{4, {}, {}};
  eng.run();
  EXPECT_EQ(eng.epochs(), 0u);
  EXPECT_EQ(eng.executed_events(), 0u);
  EXPECT_EQ(eng.unfinished_count(), 0u);
}

TEST(ParallelEngine, LocalWorkRunsWithoutMessages) {
  ParallelEngine eng{2, {}, {.threads = 2}};
  std::int64_t done_at = -1;
  eng.partition(0).spawn([&] {
    return [](std::int64_t& out) -> Task<> {
      co_await delay(5_us);
      co_await delay(5_us);
      auto* s = co_await current_scheduler();
      out = s->now().ns();
    }(done_at);
  });
  eng.run();
  EXPECT_EQ(done_at, 10'000);
  EXPECT_EQ(eng.executed_events(), 3u);
  EXPECT_EQ(eng.unfinished_count(), 0u);
  EXPECT_GE(eng.epochs(), 1u);
}

TEST(ParallelEngine, CrossPartitionPingPong) {
  ParallelEngine eng{2, pair_edges(1_us), {.threads = 2}};
  Log logs[2];
  Partition* p0 = &eng.partition(0);
  Partition* p1 = &eng.partition(1);
  Log* l0 = &logs[0];
  Log* l1 = &logs[1];

  // Self-referencing hop chain via an explicit payload struct: each hop
  // logs in the partition it lands in, then sends the next hop onward.
  struct Hop {
    Partition* here;
    Partition* peer;
    Log* here_log;
    Log* peer_log;
    int remaining;

    void operator()() const {
      here_log->entries.emplace_back(here->scheduler().now().ns(), remaining);
      if (remaining > 0) {
        here->send(peer->id(), SimDuration{2'000},
                   Hop{peer, here, peer_log, here_log, remaining - 1});
      }
    }
  };

  p0->post(SimDuration{0}, Hop{p0, p1, l0, l1, 6});
  eng.run();

  EXPECT_EQ(eng.unfinished_count(), 0u);
  EXPECT_EQ(eng.messages_delivered(), 6u);
  // Hops land at 0, 2us, 4us, ... alternating partitions.
  ASSERT_EQ(logs[0].entries.size(), 4u);
  ASSERT_EQ(logs[1].entries.size(), 3u);
  EXPECT_EQ(logs[0].entries[0], (std::pair<std::int64_t, int>{0, 6}));
  EXPECT_EQ(logs[1].entries[0], (std::pair<std::int64_t, int>{2'000, 5}));
  EXPECT_EQ(logs[0].entries[3], (std::pair<std::int64_t, int>{12'000, 0}));
}

TEST(ParallelEngine, SamePartitionSendSkipsLookaheadFloor) {
  ParallelEngine eng{2, pair_edges(10_us), {.threads = 2}};
  Log log;
  Partition* p0 = &eng.partition(0);
  Log* lp = &log;
  // delay far below the edge lookahead: legal because it never crosses
  // partitions.
  p0->post(SimDuration{0}, CrossCall{[p0, lp] {
             p0->send(p0->id(), SimDuration{5}, CrossCall{[p0, lp] {
                        lp->entries.emplace_back(p0->scheduler().now().ns(), 1);
                      }});
           }});
  eng.run();
  ASSERT_EQ(log.entries.size(), 1u);
  EXPECT_EQ(log.entries[0].first, 5);
  EXPECT_EQ(eng.messages_delivered(), 0u);  // local fast path, no RemoteMsg
}

TEST(ParallelEngine, SimultaneousArrivalsMergeBySourceThenSeq) {
  // Partitions 1..4 each send two messages to partition 0, all arriving at
  // the same instant. The deterministic merge key (at, src, seq) fixes the
  // delivery order regardless of which worker ran which sender.
  std::vector<LookaheadEdge> edges;
  for (PartitionId src = 1; src <= 4; ++src) edges.push_back(LookaheadEdge{src, 0, 1_us});
  for (const int threads : {1, 2, 4}) {
    ParallelEngine eng{5, edges, {.threads = threads}};
    Log log;
    Partition* dst = &eng.partition(0);
    Log* lp = &log;
    for (PartitionId src = 1; src <= 4; ++src) {
      Partition* sp = &eng.partition(src);
      const int tag_base = static_cast<int>(src) * 10;
      sp->post(SimDuration{0}, CrossCall{[sp, dst, lp, tag_base] {
                 // Arrival time 2us for every message from every source.
                 sp->send(dst->id(), SimDuration{2'000}, CrossCall{[dst, lp, tag_base] {
                            lp->entries.emplace_back(dst->scheduler().now().ns(), tag_base);
                          }});
                 sp->send(dst->id(), SimDuration{2'000}, CrossCall{[dst, lp, tag_base] {
                            lp->entries.emplace_back(dst->scheduler().now().ns(), tag_base + 1);
                          }});
               }});
    }
    eng.run();
    ASSERT_EQ(log.entries.size(), 8u) << "threads=" << threads;
    std::vector<int> tags;
    for (const auto& [at, tag] : log.entries) {
      EXPECT_EQ(at, 2'000);
      tags.push_back(tag);
    }
    EXPECT_EQ(tags, (std::vector<int>{10, 11, 20, 21, 30, 31, 40, 41}))
        << "threads=" << threads;
  }
}

TEST(ParallelEngine, StallAccountingIsDeterministic) {
  // Partition 0 ticks every 1us for 32us; partition 1 holds a single far
  // event. Partition 1's horizon trails partition 0's clock by the 1us
  // edge, so it retires nothing for many epochs while its queue is
  // non-empty — exactly the lookahead-stall definition.
  std::vector<std::uint64_t> stalls;
  for (const int threads : {1, 2}) {
    ParallelEngine eng{2, pair_edges(1_us), {.threads = threads}};
    eng.partition(0).spawn([] {
      return []() -> Task<> {
        for (int i = 0; i < 32; ++i) co_await delay(1_us);
      }();
    });
    eng.partition(1).spawn([] {
      return []() -> Task<> { co_await delay(100_us); }();
    });
    eng.run();
    EXPECT_EQ(eng.unfinished_count(), 0u);
    EXPECT_GT(eng.stalled_partition_epochs(), 0u);
    stalls.push_back(eng.stalled_partition_epochs());
  }
  EXPECT_EQ(stalls[0], stalls[1]);
}

TEST(ParallelEngine, TaskFailureRethrownAfterDrain) {
  ParallelEngine eng{3, {}, {.threads = 2}};
  eng.partition(2).spawn([] {
    return []() -> Task<> {
      co_await delay(3_us);
      throw std::runtime_error("partition failure");
    }();
  });
  EXPECT_THROW(eng.run(), std::runtime_error);
}

TEST(ParallelEngine, MessageFailureRethrownAfterDrain) {
  // A message whose call throws fails run() as a failed root task does:
  // the exception is kept while every partition's work, the receiver's
  // later events included, runs to completion, then rethrown after the
  // drain.
  ParallelEngine eng{3, {LookaheadEdge{0, 1, 1_us}}, {.threads = 2}};
  Partition* p0 = &eng.partition(0);
  Partition* p1 = &eng.partition(1);
  p0->post(SimDuration{0}, CrossCall{[p0, p1] {
             p0->send(p1->id(), 2_us,
                      CrossCall{[] { throw std::runtime_error{"message failure"}; }});
           }});
  std::int64_t receiver_done = -1;
  std::int64_t bystander_done = -1;
  const auto sleeper = [](SimDuration d, std::int64_t& out) -> Task<> {
    co_await delay(d);
    auto* s = co_await current_scheduler();
    out = s->now().ns();
  };
  eng.partition(1).spawn([&] { return sleeper(10_us, receiver_done); });
  eng.partition(2).spawn([&] { return sleeper(50_us, bystander_done); });
  try {
    eng.run();
    ADD_FAILURE() << "run() must rethrow the failed message";
  } catch (const std::runtime_error& e) {
    EXPECT_EQ(std::string{e.what()}, "message failure");
  }
  EXPECT_EQ(eng.messages_delivered(), 1u);
  EXPECT_EQ(receiver_done, 10'000);
  EXPECT_EQ(bystander_done, 50'000);
  EXPECT_EQ(eng.unfinished_count(), 0u);
}

// -- Whole-simulation determinism fingerprints ----------------------------

/// Engine-side statistics of one run_ring execution, for the edge-bound
/// comparisons below (the fingerprint alone proves timing equality).
struct RingStats {
  std::uint64_t epochs = 0;
  std::uint64_t stalled = 0;
  std::uint64_t horizon_gain_ns = 0;
};

/// Ring workload: `n` partitions, each running a local delay loop and
/// forwarding a token around the ring every 2us. Returns the concatenated
/// logs as the fingerprint. The lookahead graph is the ring's successor
/// edges at `edge`: by default a loose 1us, below the 2us forwarding
/// delay; the exact bound is 2us.
std::vector<std::pair<std::int64_t, int>> run_ring(int partitions, int threads,
                                                   std::uint64_t jitter_seed,
                                                   SimDuration edge = 1_us,
                                                   RingStats* stats = nullptr) {
  std::vector<LookaheadEdge> edges;
  for (int p = 0; p < partitions; ++p) {
    edges.push_back(LookaheadEdge{static_cast<PartitionId>(p),
                                  static_cast<PartitionId>((p + 1) % partitions), edge});
  }
  ParallelEngine eng{partitions, edges, {.threads = threads}};
  eng.set_claim_jitter(jitter_seed);
  std::vector<Log> logs(static_cast<std::size_t>(partitions));

  struct Token {
    ParallelEngine* eng;
    Log* logs;
    int partitions;
    int remaining;

    void operator()() const {
      Partition* here = nullptr;
      // Identify the running partition via the token's hop count.
      const int hop_total = partitions * 8;
      const int hop_index = hop_total - remaining;
      const PartitionId id = static_cast<PartitionId>(hop_index % partitions);
      here = &eng->partition(id);
      logs[id].entries.emplace_back(here->scheduler().now().ns(), remaining);
      if (remaining > 0) {
        const PartitionId next = static_cast<PartitionId>((id + 1) % partitions);
        here->send(next, SimDuration{2'000},
                   Token{eng, logs, partitions, remaining - 1});
      }
    }
  };

  for (PartitionId id = 0; id < static_cast<PartitionId>(partitions); ++id) {
    eng.partition(id).spawn([] {
      return []() -> Task<> {
        for (int i = 0; i < 16; ++i) co_await delay(1'500_ns);
      }();
    });
  }
  eng.partition(0).post(SimDuration{0},
                        Token{&eng, logs.data(), partitions, partitions * 8});
  eng.run();
  EXPECT_EQ(eng.unfinished_count(), 0u);
  if (stats != nullptr) {
    stats->epochs = eng.epochs();
    stats->stalled = eng.stalled_partition_epochs();
    stats->horizon_gain_ns = eng.horizon_gain_ns();
  }

  std::vector<std::pair<std::int64_t, int>> fingerprint;
  for (const Log& log : logs) {
    fingerprint.emplace_back(-1, static_cast<int>(log.entries.size()));
    fingerprint.insert(fingerprint.end(), log.entries.begin(), log.entries.end());
  }
  return fingerprint;
}

TEST(ParallelEngine, RingIsIdenticalAtAnyThreadCount) {
  const auto baseline = run_ring(8, 1, 0);
  EXPECT_FALSE(baseline.empty());
  for (const int threads : {2, 4, 8}) {
    EXPECT_EQ(run_ring(8, threads, 0), baseline) << "threads=" << threads;
  }
}

TEST(ParallelEngine, RingIsIdenticalUnderClaimJitter) {
  // Seeded wakeup jitter scrambles the partition -> worker assignment
  // between runs; the simulation fingerprint must not notice.
  const auto baseline = run_ring(8, 1, 0);
  for (const std::uint64_t seed : {0x1ULL, 0xdecafULL, 0x9e3779b97f4a7c15ULL}) {
    EXPECT_EQ(run_ring(8, 4, seed), baseline) << "seed=" << seed;
  }
}

TEST(ParallelEngine, LookaheadMatrixPreservesFingerprint) {
  // Exact edge bounds only widen epoch horizons over loose ones; they must
  // never change simulated timing, at any thread count.
  const auto baseline = run_ring(8, 1, 0);
  for (const int threads : {1, 2, 8}) {
    EXPECT_EQ(run_ring(8, threads, 0, 2_us), baseline) << "threads=" << threads;
  }
}

TEST(ParallelEngine, LookaheadMatrixReducesEpochsAndReportsGain) {
  RingStats loose;
  RingStats exact;
  const auto base = run_ring(8, 1, 0, 1_us, &loose);
  EXPECT_EQ(run_ring(8, 1, 0, 2_us, &exact), base);
  // Wider edge bounds only let partitions run further per epoch, so the
  // barrier count drops, and distance-aware horizons widen over the
  // uniform floor `t_min + shortest edge`, so the accumulated horizon gain
  // is strictly positive. Stalled partition-epochs are NOT compared: a
  // partition that raced ahead under its wide private horizon books a
  // "stall" while it waits for upstream.
  EXPECT_LT(exact.epochs, loose.epochs);
  EXPECT_GT(exact.horizon_gain_ns, 0u);
}

TEST(ParallelEngine, EmptyLookaheadMatrixDrainsInOneEpoch) {
  // An engine without edges (partitions that never message each other, or
  // a row of one chassis) can never receive a message, so every horizon is
  // infinite and the first epoch runs every local event — same-partition
  // sends included.
  const auto run = [](const std::vector<LookaheadEdge>& edges, std::uint64_t& epochs) {
    ParallelEngine eng{2, edges, {.threads = 1}};
    Log log;
    eng.partition(0).spawn([&] {
      return [](Partition* p, Log* lp) -> Task<> {
        for (int i = 0; i < 10; ++i) {
          co_await delay(5_us);
          p->send(p->id(), SimDuration{1}, CrossCall{[p, lp, i] {
                    lp->entries.emplace_back(p->scheduler().now().ns(), i);
                  }});
        }
      }(&eng.partition(0), &log);
    });
    eng.run();
    EXPECT_EQ(eng.unfinished_count(), 0u);
    EXPECT_EQ(eng.messages_delivered(), 0u);
    epochs = eng.epochs();
    return log.entries;
  };
  std::uint64_t unbounded_epochs = 0;
  std::uint64_t bounded_epochs = 0;
  const auto unbounded = run({}, unbounded_epochs);
  ASSERT_EQ(unbounded.size(), 10u);
  EXPECT_EQ(unbounded.back(), (std::pair<std::int64_t, int>{50'001, 9}));
  EXPECT_EQ(unbounded_epochs, 1u);
  // The same work with a 1 us edge each way needs an epoch per delay: a
  // message from partition 0 could come back to it 2 us later.
  EXPECT_EQ(run(pair_edges(1_us), bounded_epochs), unbounded);
  EXPECT_GT(bounded_epochs, 10u);
}

TEST(ParallelEngine, MatrixMinSendDelayIsPerEdge) {
  ParallelEngine eng{3,
                     {LookaheadEdge{0, 1, SimDuration{2'000}},
                      LookaheadEdge{1, 2, SimDuration{5'000}},
                      LookaheadEdge{0, 1, SimDuration{3'000}}},
                     {.threads = 1}};
  // Duplicate declarations keep the minimum; undeclared pairs are
  // unreachable and reject sends outright.
  EXPECT_EQ(eng.min_send_delay(0, 1), SimDuration{2'000});
  EXPECT_EQ(eng.min_send_delay(1, 2), SimDuration{5'000});
  EXPECT_GT(eng.min_send_delay(2, 0), SimDuration{1'000'000'000});
}

}  // namespace
}  // namespace rsd::sim

#include "interconnect/collective.hpp"

#include <map>
#include <string>
#include <utility>

#include "core/error.hpp"

namespace rsd::net {

namespace {

/// Reduce-scatter then allgather over `ranks`: 2(n-1) phases, every rank
/// shipping one bytes/n chunk to its ring successor per phase.
void append_ring(CollectiveSchedule& out, const std::vector<int>& ranks, Bytes bytes_per_rank) {
  const std::size_t n = ranks.size();
  if (n <= 1) return;
  const Bytes chunk = bytes_per_rank / static_cast<Bytes>(n);
  for (std::size_t phase = 0; phase < 2 * (n - 1); ++phase) {
    std::vector<Transfer>& transfers = out.steps.emplace_back().phase;
    transfers.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
      transfers.push_back(Transfer{ranks[i], ranks[(i + 1) % n], chunk});
    }
  }
}

/// Binomial reduce towards rank 0: in round r, every surviving rank at an
/// odd multiple of 2^r ships the full payload to its partner 2^r below
/// (a reduction needs both operands, so rounds are phases). The broadcast
/// mirrors the rounds in reverse. Every round of n >= 2 ranks has a sender.
void append_tree(CollectiveSchedule& out, int n, Bytes bytes_per_rank) {
  int rounds = 0;
  while ((1 << rounds) < n) ++rounds;
  for (int pass = 0; pass < 2; ++pass) {
    for (int step = 0; step < rounds; ++step) {
      const int stride = 1 << (pass == 0 ? step : rounds - 1 - step);
      std::vector<Transfer>& transfers = out.steps.emplace_back().phase;
      for (int i = stride; i < n; i += 2 * stride) {
        transfers.push_back(pass == 0 ? Transfer{i, i - stride, bytes_per_rank}
                                      : Transfer{i - stride, i, bytes_per_rank});
      }
    }
  }
}

/// Ring inside every chassis (concurrently), ring across the chassis
/// leaders, then each leader fans the reduced payload out to its chassis;
/// the shared leader uplink serialises those copies.
void append_hierarchical(CollectiveSchedule& out, const Topology& topology, int n,
                         Bytes bytes_per_rank) {
  // std::map: groups in ascending chassis-tag order, deterministic.
  std::map<int, std::vector<int>> groups;
  for (int rank = 0; rank < n; ++rank) {
    groups[topology.node(topology.device(rank)).chassis].push_back(rank);
  }

  CollectiveSchedule::Step intra;
  for (const auto& [tag, members] : groups) {
    if (members.size() >= 2) append_ring(intra.fork.emplace_back(), members, bytes_per_rank);
  }
  if (!intra.fork.empty()) out.steps.push_back(std::move(intra));

  std::vector<int> leaders;
  leaders.reserve(groups.size());
  for (const auto& [tag, members] : groups) leaders.push_back(members.front());
  append_ring(out, leaders, bytes_per_rank);

  CollectiveSchedule::Step fan_out;
  for (const auto& [tag, members] : groups) {
    for (std::size_t m = 1; m < members.size(); ++m) {
      fan_out.phase.push_back(Transfer{members.front(), members[m], bytes_per_rank});
    }
  }
  if (!fan_out.phase.empty()) out.steps.push_back(std::move(fan_out));
}

sim::Task<> run_steps(sim::Scheduler& sched, const CollectiveSchedule& schedule,
                      const TransferLauncher& launch);

sim::Task<> run_branch(sim::Scheduler& sched, const CollectiveSchedule& branch,
                       const TransferLauncher& launch, sim::WaitGroup& wg) {
  co_await run_steps(sched, branch, launch);
  wg.done();
}

sim::Task<> run_steps(sim::Scheduler& sched, const CollectiveSchedule& schedule,
                      const TransferLauncher& launch) {
  for (std::size_t s = 0; s < schedule.steps.size(); ++s) {
    const CollectiveSchedule::Step& step = schedule.steps[s];
    sim::WaitGroup wg{sched};
    wg.add(static_cast<std::int64_t>(step.phase.size() + step.fork.size()));
    RSD_ASSERT(wg.count() > 0);  // an empty step would never join
    for (const Transfer& t : step.phase) launch(t, static_cast<int>(s), wg);
    for (const CollectiveSchedule& branch : step.fork) {
      sched.spawn(run_branch(sched, branch, launch, wg));
    }
    co_await wg.wait();
  }
}

sim::Task<> counted_transfer(Network& network, int src, int dst, Bytes bytes,
                             sim::WaitGroup& wg) {
  co_await network.transfer_between_devices(src, dst, bytes);
  wg.done();
}

}  // namespace

CollectiveSchedule allreduce_schedule(Algorithm algorithm, const Topology& topology,
                                      int participants, Bytes bytes_per_rank) {
  if (participants < 1 || participants > topology.device_count()) {
    throw Error{ErrorCode::kInvalidArgument,
                "net::allreduce_schedule: " + std::to_string(participants) +
                    " participants, but the topology has " +
                    std::to_string(topology.device_count()) + " devices"};
  }
  CollectiveSchedule schedule;
  switch (algorithm) {
    case Algorithm::kRing: {
      std::vector<int> ranks(static_cast<std::size_t>(participants));
      for (int i = 0; i < participants; ++i) ranks[static_cast<std::size_t>(i)] = i;
      append_ring(schedule, ranks, bytes_per_rank);
      return schedule;
    }
    case Algorithm::kTree:
      append_tree(schedule, participants, bytes_per_rank);
      return schedule;
    case Algorithm::kHierarchical:
      append_hierarchical(schedule, topology, participants, bytes_per_rank);
      return schedule;
  }
  throw Error{ErrorCode::kInvalidArgument, "net::allreduce_schedule: unknown algorithm"};
}

sim::Task<> run_schedule(sim::Scheduler& sched, CollectiveSchedule schedule,
                         TransferLauncher launch) {
  // The frame owns the schedule and launcher; fork branches borrow them
  // and always finish before this frame resumes past their join.
  co_await run_steps(sched, schedule, launch);
}

sim::Task<> run_allreduce(Network& network, Algorithm algorithm, Bytes bytes_per_rank,
                          int participants) {
  return run_schedule(
      network.scheduler(),
      allreduce_schedule(algorithm, network.topology(), participants, bytes_per_rank),
      [&network](const Transfer& t, int /*step*/, sim::WaitGroup& wg) {
        network.scheduler().spawn(counted_transfer(network, t.src, t.dst, t.bytes, wg));
      });
}

AllreduceReport measure_allreduce(const Topology& topology, Algorithm algorithm,
                                  Bytes bytes_per_rank, int participants,
                                  std::vector<LinkUsageSample>* usage) {
  sim::Scheduler sched;
  AllreduceReport report;
  const std::uint64_t hits_before = topology.route_table_hits();
  {
    Network network{sched, topology};
    sched.spawn(run_allreduce(network, algorithm, bytes_per_rank, participants));
    sched.run();
    RSD_ASSERT(sched.unfinished_count() == 0);
    report.transfers = network.transfers();
    report.contended_transfers = network.contended_transfers();
    report.reconfigurations = network.reconfigurations();
    report.link_busy_total = network.link_busy_total();
    report.express_transfers = network.express_transfers();
    report.route_hits = topology.route_table_hits() - hits_before;
    if (usage != nullptr) *usage = network.link_usage();
  }
  report.duration = sched.now() - SimTime::zero();
  return report;
}

}  // namespace rsd::net

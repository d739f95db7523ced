#include "gpusim/device.hpp"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "core/error.hpp"
#include "interconnect/link.hpp"
#include "obs/tracer.hpp"
#include "sim/scheduler.hpp"

namespace rsd::gpu {
namespace {

using namespace rsd::literals;

DeviceParams test_params() {
  DeviceParams p;
  p.matmul_tflops = 100.0;
  p.kernel_base = 4_us;
  p.kernel_setup = 8_us;
  p.copy_setup = 4_us;
  p.wake_t0 = 500_ns;
  p.wake_alpha = 0.1;
  p.wake_max = 1_ms;
  p.memory_capacity = 40 * kGiB;
  return p;
}

TEST(MemoryPool, AllocateAndFree) {
  MemoryPool pool{1000};
  const auto h1 = pool.allocate(400);
  const auto h2 = pool.allocate(600);
  EXPECT_EQ(pool.used(), 1000u);
  EXPECT_EQ(pool.peak(), 1000u);
  EXPECT_EQ(pool.allocation_count(), 2u);
  pool.free(h1);
  EXPECT_EQ(pool.used(), 600u);
  EXPECT_EQ(pool.peak(), 1000u);
  pool.free(h2);
  EXPECT_EQ(pool.used(), 0u);
}

TEST(MemoryPool, ThrowsOnOverCapacity) {
  MemoryPool pool{1000};
  (void)pool.allocate(800);
  try {
    (void)pool.allocate(300);
    FAIL() << "expected OOM";
  } catch (const Error& e) {
    EXPECT_EQ(e.code(), ErrorCode::kOutOfMemory);
  }
}

TEST(MemoryPool, ExactFitSucceeds) {
  MemoryPool pool{1000};
  EXPECT_NO_THROW((void)pool.allocate(1000));
}

TEST(MemoryPool, RejectsZeroByteAndUnknownFree) {
  MemoryPool pool{1000};
  EXPECT_THROW((void)pool.allocate(0), Error);
  EXPECT_THROW(pool.free(999), Error);
}

TEST(MemoryPool, PaperExclusionThreeFourGiBMatricesTimesFourThreads) {
  // Section IV-B: 3 * 4 GiB * 4 threads > 40 GiB, so matrix size 2^15 is
  // excluded from the 4- and 8-thread sweeps.
  MemoryPool pool{40 * kGiB};
  const Bytes matrix = 4ULL * kGiB;
  std::vector<MemoryPool::Handle> handles;
  int allocated_threads = 0;
  try {
    for (int t = 0; t < 4; ++t) {
      for (int m = 0; m < 3; ++m) handles.push_back(pool.allocate(matrix));
      ++allocated_threads;
    }
  } catch (const Error& e) {
    EXPECT_EQ(e.code(), ErrorCode::kOutOfMemory);
  }
  EXPECT_EQ(allocated_threads, 3);  // 3 threads fit (36 GiB), the 4th does not
}

TEST(Device, MatmulDurationFollowsCubicCostModel) {
  sim::Scheduler sched;
  Device dev{sched, test_params(), interconnect::make_pcie_gen4_x16()};
  // 2 * 8192^3 flops at 100 TFLOP/s = ~11 ms.
  const auto d13 = dev.matmul_kernel_duration(8192);
  EXPECT_NEAR(d13.ms(), 11.0, 0.5);
  // Small kernels bottom out near kernel_base.
  const auto tiny = dev.matmul_kernel_duration(16);
  EXPECT_GE(tiny, 4_us);
  EXPECT_LT(tiny, 5_us);
  // Monotone in n.
  EXPECT_LT(dev.matmul_kernel_duration(512), dev.matmul_kernel_duration(2048));
}

TEST(Device, WakePenaltyPiecewiseShape) {
  sim::Scheduler sched;
  Device dev{sched, test_params(), interconnect::make_pcie_gen4_x16()};
  EXPECT_EQ(dev.wake_penalty(SimDuration::zero()), SimDuration::zero());
  EXPECT_EQ(dev.wake_penalty(500_ns), SimDuration::zero());  // below t0
  // Linear region: alpha * (gap - t0).
  EXPECT_NEAR(dev.wake_penalty(100_us + 500_ns).us(), 10.0, 1e-6);
  // Saturates at wake_max.
  EXPECT_EQ(dev.wake_penalty(1_s), 1_ms);
  // Monotone non-decreasing.
  SimDuration prev = SimDuration::zero();
  for (std::int64_t us = 1; us <= 100000; us *= 10) {
    const auto w = dev.wake_penalty(duration::microseconds(static_cast<double>(us)));
    EXPECT_GE(w, prev);
    prev = w;
  }
}

TEST(Engine, SingleOpPaysExposedSetupWhenIdle) {
  sim::Scheduler sched;
  Device dev{sched, test_params(), interconnect::make_pcie_gen4_x16()};
  OpRecord rec;
  rec.kind = OpKind::kKernel;
  sched.spawn([](Device& d, OpRecord& r) -> sim::Task<> {
    co_await d.compute_engine().execute(r, 100_us);
  }(dev, rec));
  sched.run();
  EXPECT_EQ(rec.exposed_overhead, 8_us);
  EXPECT_EQ(rec.wake_penalty, SimDuration::zero());  // device starts warm
  // Duration is pure execution; the exposed setup appears before `start`.
  EXPECT_EQ(rec.end - rec.start, 100_us);
  EXPECT_EQ(rec.start, SimTime::zero() + 8_us);
}

TEST(Engine, QueuedOpHidesSetup) {
  sim::Scheduler sched;
  Device dev{sched, test_params(), interconnect::make_pcie_gen4_x16()};
  OpRecord r1;
  OpRecord r2;
  auto submit = [](Device& d, OpRecord& r) -> sim::Task<> {
    co_await d.compute_engine().execute(r, 100_us);
  };
  sched.spawn(submit(dev, r1));
  sched.spawn(submit(dev, r2));  // arrives while r1 queued -> hidden setup
  sched.run();
  EXPECT_EQ(r1.exposed_overhead, 8_us);
  EXPECT_EQ(r2.exposed_overhead, SimDuration::zero());
  EXPECT_EQ(r2.end - r2.start, 100_us);
  // FIFO service.
  EXPECT_EQ(r2.start, r1.end);
}

TEST(Engine, WakePenaltyPaidAfterDeviceIdleGap) {
  sim::Scheduler sched;
  auto params = test_params();
  Device dev{sched, params, interconnect::make_pcie_gen4_x16()};
  OpRecord r1;
  OpRecord r2;
  sched.spawn([](Device& d, OpRecord& a, OpRecord& b) -> sim::Task<> {
    co_await d.compute_engine().execute(a, 10_us);
    co_await sim::delay(1_ms);  // device fully idle for 1 ms
    co_await d.compute_engine().execute(b, 10_us);
  }(dev, r1, r2));
  sched.run();
  EXPECT_EQ(r1.wake_penalty, SimDuration::zero());
  // W(1 ms) = 0.1 * (1 ms - 0.5 us) ~ 99.95 us.
  EXPECT_NEAR(r2.wake_penalty.us(), 99.95, 0.1);
  EXPECT_EQ(dev.wake_count(), 1);
  EXPECT_EQ(dev.total_wake_penalty(), r2.wake_penalty);
}

TEST(Engine, NoWakePenaltyWhenOtherEngineBusy) {
  sim::Scheduler sched;
  Device dev{sched, test_params(), interconnect::make_pcie_gen4_x16()};
  OpRecord copy;
  OpRecord kernel;
  // A long copy keeps the device busy; a kernel arriving mid-copy pays no
  // wake penalty even though the compute engine was idle.
  sched.spawn([](Device& d, OpRecord& c) -> sim::Task<> {
    co_await d.h2d_engine().execute(c, 10_ms);
  }(dev, copy));
  sched.spawn([](Device& d, OpRecord& k) -> sim::Task<> {
    co_await sim::delay(5_ms);
    co_await d.compute_engine().execute(k, 10_us);
  }(dev, kernel));
  sched.run();
  EXPECT_EQ(kernel.wake_penalty, SimDuration::zero());
}

TEST(Engine, CopyAndComputeEnginesRunInParallel) {
  sim::Scheduler sched;
  Device dev{sched, test_params(), interconnect::make_pcie_gen4_x16()};
  OpRecord copy;
  OpRecord kernel;
  sched.spawn([](Device& d, OpRecord& c) -> sim::Task<> {
    co_await d.h2d_engine().execute(c, 100_us);
  }(dev, copy));
  sched.spawn([](Device& d, OpRecord& k) -> sim::Task<> {
    co_await d.compute_engine().execute(k, 100_us);
  }(dev, kernel));
  sched.run();
  // Both execute from their own setup offsets — no serialisation across
  // engines (a serialised kernel would start only after the 100 us copy).
  EXPECT_EQ(copy.start, SimTime::zero() + 4_us);
  EXPECT_EQ(kernel.start, SimTime::zero() + 8_us);
}

TEST(Engine, BusyTimeAccumulates) {
  sim::Scheduler sched;
  Device dev{sched, test_params(), interconnect::make_pcie_gen4_x16()};
  OpRecord r1;
  OpRecord r2;
  sched.spawn([](Device& d, OpRecord& a, OpRecord& b) -> sim::Task<> {
    co_await d.compute_engine().execute(a, 50_us);
    co_await d.compute_engine().execute(b, 70_us);
  }(dev, r1, r2));
  sched.run();
  // Execution time only (setup overheads land in queue delay).
  EXPECT_EQ(dev.kernel_busy_time(), 120_us);
}

TEST(Device, BusyTimeAndEnergyAccounting) {
  sim::Scheduler sched;
  auto params = test_params();
  params.busy_watts = 400.0;
  params.idle_watts = 50.0;
  Device dev{sched, params, interconnect::make_pcie_gen4_x16()};
  sched.spawn([](Device& d) -> sim::Task<> {
    OpRecord r1;
    co_await d.compute_engine().execute(r1, 92_us);  // 8 us setup + 92 = 100 us busy
    co_await sim::delay(900_us);                      // idle
  }(dev));
  sched.run();
  const SimTime end = SimTime::zero() + 1_ms;
  EXPECT_EQ(dev.device_busy_time(end), 100_us);
  // 100 us at 400 W + 900 us at 50 W.
  EXPECT_NEAR(dev.energy_joules(end), 100e-6 * 400.0 + 900e-6 * 50.0, 1e-9);
}

TEST(Device, OverlappingEnginesCountBusyOnce) {
  sim::Scheduler sched;
  Device dev{sched, test_params(), interconnect::make_pcie_gen4_x16()};
  // Copy engine busy 0..100us (after 4us setup: 4..104), kernel overlapping.
  sched.spawn([](Device& d) -> sim::Task<> {
    OpRecord c;
    co_await d.h2d_engine().execute(c, 96_us);
  }(dev));
  sched.spawn([](Device& d) -> sim::Task<> {
    OpRecord k;
    co_await d.compute_engine().execute(k, 92_us);
  }(dev));
  sched.run();
  // Both ops span [0, 100us] wall including setups; device busy is the
  // union, not the sum.
  EXPECT_EQ(dev.device_busy_time(SimTime::zero() + 100_us), 100_us);
}

TEST(Device, EngineForDispatch) {
  sim::Scheduler sched;
  Device dev{sched, test_params(), interconnect::make_pcie_gen4_x16()};
  EXPECT_EQ(&dev.engine_for(OpKind::kKernel), &dev.compute_engine());
  EXPECT_EQ(&dev.engine_for(OpKind::kMemcpyH2D), &dev.h2d_engine());
  EXPECT_EQ(&dev.engine_for(OpKind::kMemcpyD2H), &dev.d2h_engine());
}

// -- Engine occupancy -------------------------------------------------------

/// One op of a submitting lane: `think` of host time after the lane's
/// previous op returned, then the op itself.
struct ScriptOp {
  SimDuration think;
  OpKind kind;
  int process;
  SimDuration service;
};

/// Issue `script` in order, each op through execute().
sim::Task<> run_script(Device& dev, const std::vector<ScriptOp>& script,
                       std::vector<OpRecord>& out) {
  out.reserve(script.size());
  for (const ScriptOp& op : script) {
    if (op.think > SimDuration::zero()) co_await sim::delay(op.think);
    OpRecord& rec = out.emplace_back();
    rec.kind = op.kind;
    rec.name = NameRef{to_string(op.kind)};
    rec.context_id = op.process;
    rec.process_id = op.process;
    rec.submit = dev.scheduler().now();
    rec.bytes = op.kind == OpKind::kKernel ? 0 : 4 * kKiB;
    co_await dev.engine_for(op.kind).execute(rec, op.service);
  }
}

/// Device-level busy time and energy sampled at fixed instants.
sim::Task<> probe(Device& dev, std::vector<SimTime> at, std::vector<SimDuration>& busy,
                  std::vector<double>& energy) {
  for (const SimTime t : at) {
    co_await sim::delay(t - dev.scheduler().now());
    busy.push_back(dev.device_busy_time(t));
    energy.push_back(dev.energy_joules(t));
  }
}

struct ParityRun {
  std::vector<std::vector<OpRecord>> lanes;
  std::int64_t wake_count = 0;
  SimDuration total_wake;
  SimDuration kernel_busy;
  SimDuration copy_busy;
  std::vector<SimDuration> busy;  ///< device_busy_time at the probes, then at the end.
  std::vector<double> energy;     ///< energy_joules likewise.
  std::string trace_json;         ///< The device's simulated tracer records.
};

/// The parity sequence (times in us; setups 8 compute / 4 copy, t0 0.5):
///  - lane 0: kernel p0 at 0 (idle, exposed, device warm); kernel p1 0.3
///    after it returns (gap below t0, exposed, process switch); kernel p2
///    at 2000 (gap ~1084, wake); H2D exactly t0 after that (no wake); D2H
///    0.6 after that (gap just above t0: 10 ns wake);
///  - lanes 1-3: an H2D at 10 finds the copy engine idle; H2Ds at 20 and
///    30 chain behind it; lane 1 then issues again exactly at its first
///    op's end, behind the two chained ops;
///  - lane 4: a kernel p2 at 200 chains behind lane 0's p1 kernel and
///    pays the switch when it starts;
///  - lane 5: a D2H at 300, then another exactly at its end, on an idle
///    engine (exposed again);
///  - lanes 6-8, after ~835 of device idle: a D2H at 3000 (wake) and an
///    H2D at 3001 find their engines idle, an H2D at 3002 chains behind
///    the latter and ends last, at 3115, so the device goes idle at a
///    chained op's end while the earlier D2H end is still pending; lane 6
///    then launches a kernel at ~3200, whose wake measures the gap from
///    3115;
///  - lanes 9-15, after ~1774 of device idle: an H2D at 5000 pays the
///    wake, and H2Ds at 5050 and 5100 land during that wake and chain
///    behind it; a kernel p3 at 5150 finds the compute engine idle (no
///    wake: the copies keep the device busy) and a kernel p0 at 5200
///    chains behind it, paying the switch back; H2Ds at 5250 and 5260
///    chain behind the whole copy queue; lane 9 then issues a D2H at
///    ~6281, whose wake measures the gap from the last kernel's end.
/// Probes sample busy time and energy at 100 (lane 0's first kernel in
/// flight), 1000 (idle, every booking retired), 2500 (lane 0's last D2H
/// over but not yet retired), 5300 (lanes 9-15 in flight) and 6200 (idle
/// again, bookings not yet retired).
ParityRun run_parity_sequence() {
  const std::vector<std::vector<ScriptOp>> scripts{
      {{SimDuration::zero(), OpKind::kKernel, 0, 100_us},
       {300_ns, OpKind::kKernel, 1, 50_us},
       {1463700_ns, OpKind::kKernel, 2, 30_us},
       {500_ns, OpKind::kMemcpyH2D, 2, 5_us},
       {600_ns, OpKind::kMemcpyD2H, 2, 5_us}},
      {{10_us, OpKind::kMemcpyH2D, 0, 40_us}, {SimDuration::zero(), OpKind::kMemcpyH2D, 0, 10_us}},
      {{20_us, OpKind::kMemcpyH2D, 1, 30_us}},
      {{30_us, OpKind::kMemcpyH2D, 1, 10_us}},
      {{200_us, OpKind::kKernel, 2, 10_us}},
      {{300_us, OpKind::kMemcpyD2H, 0, 50_us}, {SimDuration::zero(), OpKind::kMemcpyD2H, 0, 20_us}},
      {{3000_us, OpKind::kMemcpyD2H, 0, 10_us}, {102500_ns, OpKind::kKernel, 2, 10_us}},
      {{3001_us, OpKind::kMemcpyH2D, 1, 10_us}},
      {{3002_us, OpKind::kMemcpyH2D, 1, 100_us}},
      {{5000_us, OpKind::kMemcpyH2D, 0, 100_us}, {1_ms, OpKind::kMemcpyD2H, 0, 10_us}},
      {{5050_us, OpKind::kMemcpyH2D, 1, 30_us}},
      {{5100_us, OpKind::kMemcpyH2D, 1, 20_us}},
      {{5150_us, OpKind::kKernel, 3, 40_us}},
      {{5200_us, OpKind::kKernel, 0, 10_us}},
      {{5250_us, OpKind::kMemcpyH2D, 2, 15_us}},
      {{5260_us, OpKind::kMemcpyH2D, 2, 5_us}},
  };
  auto& tracer = obs::Tracer::instance();
  tracer.enable();  // fresh timeline: the device gets the first sim id
  ParityRun run;
  run.lanes.resize(scripts.size());
  {
    sim::Scheduler sched;
    Device dev{sched, test_params(), interconnect::make_pcie_gen4_x16()};
    for (std::size_t i = 0; i < scripts.size(); ++i) {
      sched.spawn(run_script(dev, scripts[i], run.lanes[i]));
    }
    sched.spawn(probe(dev,
                      {SimTime::zero() + 100_us, SimTime::zero() + 1_ms,
                       SimTime::zero() + 2500_us, SimTime::zero() + 5300_us,
                       SimTime::zero() + 6200_us},
                      run.busy, run.energy));
    sched.run();
    run.wake_count = dev.wake_count();
    run.total_wake = dev.total_wake_penalty();
    run.kernel_busy = dev.kernel_busy_time();
    run.copy_busy = dev.copy_busy_time();
    run.busy.push_back(dev.device_busy_time(sched.now()));
    run.energy.push_back(dev.energy_joules(sched.now()));
  }  // ~Device emits the samples of bookings nobody waited for
  run.trace_json = obs::chrome_trace_json(obs::simulated_slice(tracer.snapshot()));
  tracer.disable();
  return run;
}

SimDuration dev_wake(SimDuration gap) {
  sim::Scheduler sched;
  return Device{sched, test_params(), interconnect::make_pcie_gen4_x16()}.wake_penalty(gap);
}

/// One op of the parity sequence as the engine ran it (times in ns).
struct RecordedOp {
  std::size_t lane;
  std::size_t op;
  std::int64_t submit;
  std::int64_t start;
  std::int64_t end;
  std::int64_t exposed;
  std::int64_t wake;
  std::int64_t switch_ns;
};

/// The parity sequence's output before booking became the engine's only
/// rule, when every op ran through a scheduled path: a FIFO permit per
/// engine, a delay for the setup and one for the service, and a queue
/// sample at each op's end. Booked ops must reproduce it exactly.
constexpr RecordedOp kRecordedOps[] = {
    {0, 0, 0, 8000, 108000, 8000, 0, 0},
    {0, 1, 108300, 486300, 536300, 8000, 0, 370000},
    {0, 2, 2000000, 2116320, 2146320, 8000, 108320, 0},
    {0, 3, 2146820, 2150820, 2155820, 4000, 0, 0},
    {0, 4, 2156420, 2160430, 2165430, 4000, 10, 0},
    {1, 0, 10000, 14000, 54000, 4000, 0, 0},
    {1, 1, 54000, 94000, 104000, 0, 0, 0},
    {2, 0, 20000, 54000, 84000, 0, 0, 0},
    {3, 0, 30000, 84000, 94000, 0, 0, 0},
    {4, 0, 200000, 906300, 916300, 0, 0, 370000},
    {5, 0, 300000, 304000, 354000, 4000, 0, 0},
    {5, 1, 354000, 358000, 378000, 4000, 0, 0},
    {6, 0, 3000000, 3087407, 3097407, 4000, 83407, 0},
    {6, 1, 3199907, 3216347, 3226347, 8000, 8440, 0},
    {7, 0, 3001000, 3005000, 3015000, 4000, 0, 0},
    {8, 0, 3002000, 3015000, 3115000, 0, 0, 0},
    {9, 0, 5000000, 5181315, 5281315, 4000, 177315, 0},
    {9, 1, 6281315, 6318596, 6328596, 4000, 33281, 0},
    {10, 0, 5050000, 5281315, 5311315, 0, 0, 0},
    {11, 0, 5100000, 5311315, 5331315, 0, 0, 0},
    {12, 0, 5150000, 5528000, 5568000, 8000, 0, 370000},
    {13, 0, 5200000, 5938000, 5948000, 0, 0, 370000},
    {14, 0, 5250000, 5331315, 5346315, 0, 0, 0},
    {15, 0, 5260000, 5346315, 5351315, 0, 0, 0},
};
constexpr std::int64_t kRecordedWakeCount = 6;
constexpr std::int64_t kRecordedTotalWakeNs = 410773;
constexpr std::int64_t kRecordedKernelBusyNs = 250000;
constexpr std::int64_t kRecordedCopyBusyNs = 470000;
/// device_busy_time and energy_joules at the five probes, then at the end.
constexpr std::int64_t kRecordedBusyNs[] = {100000, 916000, 1080330, 1521770, 2169770, 2217051};
constexpr double kRecordedEnergy[] = {0.040000000000000001, 0.37102000000000002,
                                     0.51021384999999997,  0.81651065,
                                     1.08957065,           1.1129553750000001};
/// The tracer export: its length and 64-bit FNV-1a.
constexpr std::size_t kRecordedTraceBytes = 10873;
constexpr std::uint64_t kRecordedTraceFnv = 5883751814734568687ULL;

std::uint64_t fnv1a(const std::string& text) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const char c : text) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ULL;
  }
  return h;
}

TEST(EngineExpress, BookedOpsMatchScheduledOpsFieldByField) {
  const ParityRun booked = run_parity_sequence();
  std::size_t ops = 0;
  for (const auto& lane : booked.lanes) ops += lane.size();
  ASSERT_EQ(ops, std::size(kRecordedOps));
  for (const RecordedOp& want : kRecordedOps) {
    ASSERT_LT(want.op, booked.lanes.at(want.lane).size());
    const OpRecord& got = booked.lanes[want.lane][want.op];
    const std::string label = "lane " + std::to_string(want.lane) + " op " +
                              std::to_string(want.op);
    EXPECT_EQ(got.submit.ns(), want.submit) << label;
    EXPECT_EQ(got.start.ns(), want.start) << label;
    EXPECT_EQ(got.end.ns(), want.end) << label;
    EXPECT_EQ(got.exposed_overhead.ns(), want.exposed) << label;
    EXPECT_EQ(got.wake_penalty.ns(), want.wake) << label;
    EXPECT_EQ(got.switch_penalty.ns(), want.switch_ns) << label;
  }
  EXPECT_EQ(booked.wake_count, kRecordedWakeCount);
  EXPECT_EQ(booked.total_wake.ns(), kRecordedTotalWakeNs);
  EXPECT_EQ(booked.kernel_busy.ns(), kRecordedKernelBusyNs);
  EXPECT_EQ(booked.copy_busy.ns(), kRecordedCopyBusyNs);
  ASSERT_EQ(booked.busy.size(), std::size(kRecordedBusyNs));
  ASSERT_EQ(booked.energy.size(), std::size(kRecordedEnergy));
  for (std::size_t i = 0; i < booked.busy.size(); ++i) {
    EXPECT_EQ(booked.busy[i].ns(), kRecordedBusyNs[i]) << "probe " << i;
    // Within 4 ulps: a target that fuses multiply-adds may round the last
    // bit differently; the busy times it is computed from are exact.
    EXPECT_DOUBLE_EQ(booked.energy[i], kRecordedEnergy[i]) << "probe " << i;
  }
  // Tracer records too, queue-depth samples included.
  EXPECT_NE(booked.trace_json.find("copy-h2d.queue"), std::string::npos);
  EXPECT_NE(booked.trace_json.find("wake_penalty"), std::string::npos);
  EXPECT_EQ(booked.trace_json.size(), kRecordedTraceBytes);
  EXPECT_EQ(fnv1a(booked.trace_json), kRecordedTraceFnv);

  // The sequence exercises what it claims.
  const auto& lane0 = booked.lanes[0];
  EXPECT_EQ(lane0[0].exposed_overhead, 8_us);
  EXPECT_EQ(lane0[0].wake_penalty, SimDuration::zero());  // device starts warm
  EXPECT_EQ(lane0[1].wake_penalty, SimDuration::zero());  // 0.3 us gap < t0
  EXPECT_EQ(lane0[1].switch_penalty, test_params().process_switch);
  EXPECT_EQ(lane0[1].start, SimTime::zero() + 108_us + 300_ns + 8_us + 370_us);
  EXPECT_GT(lane0[2].wake_penalty, 100_us);                // ~1084 us idle
  EXPECT_EQ(lane0[3].wake_penalty, SimDuration::zero());  // gap exactly t0
  EXPECT_EQ(lane0[4].wake_penalty, 10_ns);                 // 0.1 * (0.6 - 0.5) us
  const auto& lane1 = booked.lanes[1];
  EXPECT_EQ(lane1[0].end, SimTime::zero() + 54_us);
  EXPECT_EQ(booked.lanes[2][0].start, lane1[0].end);  // chained behind the booking
  EXPECT_EQ(booked.lanes[2][0].exposed_overhead, SimDuration::zero());
  EXPECT_EQ(booked.lanes[3][0].start, booked.lanes[2][0].end);
  EXPECT_EQ(lane1[1].start, booked.lanes[3][0].end);  // FIFO behind both
  const OpRecord& chained_kernel = booked.lanes[4][0];
  EXPECT_EQ(chained_kernel.exposed_overhead, SimDuration::zero());
  EXPECT_EQ(chained_kernel.switch_penalty, test_params().process_switch);
  EXPECT_EQ(chained_kernel.start, lane0[1].end + test_params().process_switch);
  const auto& lane5 = booked.lanes[5];
  EXPECT_EQ(lane5[1].submit, lane5[0].end);
  EXPECT_EQ(lane5[1].exposed_overhead, 4_us);
  EXPECT_EQ(lane5[1].start, lane5[0].end + 4_us);
  EXPECT_EQ(booked.busy[0], 100_us);  // in flight since 0
  const auto& lane6 = booked.lanes[6];
  EXPECT_LT(lane6[0].end, booked.lanes[8][0].end);
  EXPECT_EQ(booked.lanes[8][0].start, booked.lanes[7][0].end);
  EXPECT_EQ(booked.lanes[8][0].end, SimTime::zero() + 3115_us);
  EXPECT_EQ(lane6[1].wake_penalty, dev_wake(lane6[1].submit - booked.lanes[8][0].end));
  const auto first = [&booked](std::size_t lane) -> const OpRecord& {
    return booked.lanes[lane][0];
  };
  EXPECT_EQ(first(9).wake_penalty, dev_wake(first(9).submit - lane6[1].end));
  EXPECT_GT(first(9).wake_penalty, 100_us);
  for (const std::size_t lane : {10, 11}) {  // land during that wake, chain behind it
    EXPECT_LT(first(lane).submit, first(9).start);
    EXPECT_EQ(first(lane).start, first(lane - 1).end);
    EXPECT_EQ(first(lane).exposed_overhead, SimDuration::zero());
    EXPECT_EQ(first(lane).wake_penalty, SimDuration::zero());
  }
  EXPECT_EQ(first(12).exposed_overhead, 8_us);
  EXPECT_EQ(first(12).wake_penalty, SimDuration::zero());  // the copies keep the device busy
  EXPECT_EQ(first(13).start, first(12).end + test_params().process_switch);
  EXPECT_EQ(first(13).exposed_overhead, SimDuration::zero());
  EXPECT_EQ(first(13).wake_penalty, SimDuration::zero());
  EXPECT_EQ(first(14).start, first(11).end);  // chained behind the copies
  EXPECT_EQ(first(15).start, first(14).end);  // and behind that
  const OpRecord& late = booked.lanes[9][1];
  EXPECT_GT(late.wake_penalty, SimDuration::zero());  // device idle since the last kernel
  EXPECT_EQ(late.wake_penalty, dev_wake(late.submit - first(13).end));
}

// An engine with bookings outstanding chains every arrival behind them: the
// op starts at the last booked end, its setup hidden behind that work and
// with no wake (the bookings keep the device busy), and the compute engine
// adds a process switch on top.
TEST(EngineExpress, BookedEngineChainsEveryArrival) {
  sim::Scheduler sched;
  Device dev{sched, test_params(), interconnect::make_pcie_gen4_x16()};
  OpRecord first;
  dev.d2h_engine().book(first, 50_us);
  EXPECT_EQ(first.start, SimTime::zero() + 4_us);
  EXPECT_EQ(first.end, SimTime::zero() + 54_us);
  EXPECT_EQ(first.exposed_overhead, 4_us);
  OpRecord second;
  dev.d2h_engine().book(second, 20_us);
  EXPECT_EQ(second.start, first.end);
  EXPECT_EQ(second.end, first.end + 20_us);
  EXPECT_EQ(second.exposed_overhead, SimDuration::zero());
  EXPECT_EQ(second.wake_penalty, SimDuration::zero());
  EXPECT_EQ(dev.d2h_engine().busy_time(), 70_us);  // counted when booked
  // The other engines are free: a copy the other way is exposed.
  OpRecord other;
  dev.h2d_engine().book(other, 10_us);
  EXPECT_EQ(other.start, SimTime::zero() + 4_us);
  EXPECT_EQ(other.exposed_overhead, 4_us);
  // A kernel of another process chains behind the booked kernel and pays
  // the switch when it starts.
  OpRecord kernel;
  kernel.process_id = 0;
  dev.compute_engine().book(kernel, 30_us);
  OpRecord switched;
  switched.process_id = 1;
  dev.compute_engine().book(switched, 10_us);
  EXPECT_EQ(switched.start, kernel.end + test_params().process_switch);
  EXPECT_EQ(switched.exposed_overhead, SimDuration::zero());
  EXPECT_EQ(switched.wake_penalty, SimDuration::zero());
  EXPECT_EQ(switched.switch_penalty, test_params().process_switch);
  // An op arriving mid-chain, through execute(), starts after the whole
  // chain and resumes its caller at its end.
  OpRecord late;
  SimTime resumed;
  sched.spawn([](Device& d, OpRecord& r, SimTime& at) -> sim::Task<> {
    co_await sim::delay(60_us);
    co_await d.d2h_engine().execute(r, 10_us);
    at = d.scheduler().now();
  }(dev, late, resumed));
  sched.run();
  EXPECT_EQ(late.start, second.end);
  EXPECT_EQ(late.exposed_overhead, SimDuration::zero());
  EXPECT_EQ(late.wake_penalty, SimDuration::zero());
  EXPECT_EQ(resumed, late.end);
  EXPECT_EQ(dev.wake_count(), 0);
}

// Tie rule: a booking that ends at or before `now` is over. An op arriving
// exactly at a booked end therefore finds the engine idle and pays the
// exposed setup, whichever of the two runs first at that instant. Here the
// arrival's wakeup is queued before the first op is even booked, so it runs
// before the first op's caller resumes at its end.
TEST(EngineExpress, ArrivalExactlyAtABookedEndFindsTheEngineIdle) {
  sim::Scheduler sched;
  Device dev{sched, test_params(), interconnect::make_pcie_gen4_x16()};
  OpRecord first;
  OpRecord next;
  sched.spawn([](Device& d, OpRecord& r) -> sim::Task<> {
    co_await sim::delay(54_us);
    co_await d.d2h_engine().execute(r, 10_us);
  }(dev, next));
  sched.spawn([](Device& d, OpRecord& r) -> sim::Task<> {
    co_await d.d2h_engine().execute(r, 50_us);
  }(dev, first));
  sched.run();
  ASSERT_EQ(first.end, SimTime::zero() + 54_us);
  EXPECT_EQ(next.exposed_overhead, 4_us);
  EXPECT_EQ(next.wake_penalty, SimDuration::zero());  // W(0) = 0
  EXPECT_EQ(next.start, first.end + 4_us);
  EXPECT_EQ(dev.device_busy_time(next.end), next.end - SimTime::zero());
}

}  // namespace
}  // namespace rsd::gpu

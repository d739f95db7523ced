// The wl IR's core contract: a program replays deterministically, a
// captured replay reconstructs into a program (directly or through the
// NSys-style CSV), and the reconstruction replays to the identical
// runtime — the fixpoint that makes external traces runnable.
#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "core/error.hpp"
#include "core/units.hpp"
#include "gpusim/context.hpp"
#include "trace/import.hpp"
#include "wl/from_trace.hpp"
#include "wl/program.hpp"
#include "wl/replay.hpp"

namespace rsd::wl {
namespace {

using namespace rsd::literals;

/// Two submitters with distinct process/context identity, bufferless
/// copies, every op blocking, a trailing sync — the shape from_trace
/// reconstructs exactly.
Program blocking_two_lane_program() {
  Program program;
  for (int t = 0; t < 2; ++t) {
    Lane& lane = program.lanes.emplace_back();
    lane.context_id = t;
    lane.process_id = t;
    lane.cpu(5_us * static_cast<double>(t + 1));  // distinct think time per lane
    lane.h2d_bytes(Bytes{1} * kMiB, NameRef{"h2d_in"});
    lane.kernel_sync(NameRef{"work"}, 200_us);
    lane.d2h_bytes(Bytes{256} * kKiB, NameRef{"d2h_out"});
    lane.sync();
  }
  return program;
}

TEST(WlProgram, LoopCountsAndValidation) {
  Lane lane;
  lane.loop(3);
  lane.kernel(NameRef{"k"}, 10_us);
  lane.h2d_bytes(Bytes{4} * kKiB, NameRef{"c"});
  lane.end_loop();
  lane.sync();
  // 2 API calls per trip, 3 trips, plus the sync.
  EXPECT_EQ(lane.api_call_count(), 7);

  Program program;
  program.lanes.push_back(lane);
  EXPECT_NO_THROW(program.validate());
}

TEST(WlProgram, EndLoopWithoutBeginThrows) {
  Lane lane;
  EXPECT_THROW(lane.end_loop(), Error);
}

TEST(WlProgram, ValidateRejectsUnclosedLoopAndBadBuffer) {
  Program unclosed;
  unclosed.lanes.emplace_back().loop(2);
  EXPECT_THROW(unclosed.validate(), Error);

  Program bad_buffer;
  bad_buffer.lanes.emplace_back().h2d(3, NameRef{"x"});  // no buffers added
  EXPECT_THROW(bad_buffer.validate(), Error);
}

TEST(WlReplay, LoopMatchesManualUnroll) {
  const SimDuration kernel = 50_us;
  Program looped;
  {
    Lane& lane = looped.lanes.emplace_back();
    lane.loop(5);
    lane.kernel_sync(NameRef{"k"}, kernel);
    lane.sync();
    lane.end_loop();
  }
  Program unrolled;
  {
    Lane& lane = unrolled.lanes.emplace_back();
    for (int i = 0; i < 5; ++i) {
      lane.kernel_sync(NameRef{"k"}, kernel);
      lane.sync();
    }
  }
  const ReplayEngine engine;
  EXPECT_EQ(engine.run(looped).runtime, engine.run(unrolled).runtime);
}

TEST(WlReplay, DeterministicAndCaptureNeutral) {
  const Program program = blocking_two_lane_program();
  const ReplayEngine engine;
  ReplayOptions plain;
  ReplayOptions captured;
  captured.capture_trace = true;
  const auto a = engine.run(program, plain);
  const auto b = engine.run(program, captured);
  const auto c = engine.run(program, captured);
  EXPECT_EQ(a.runtime, b.runtime);  // recording must not perturb the schedule
  EXPECT_EQ(b.runtime, c.runtime);
  EXPECT_EQ(b.trace.ops().size(), c.trace.ops().size());
}

TEST(WlReplay, SlackDelaysEveryApiCall) {
  const Program program = blocking_two_lane_program();
  std::int64_t expected = 0;
  for (const Lane& lane : program.lanes) expected += lane.api_call_count();

  const ReplayEngine engine;
  ReplayOptions options;
  options.slack = 10_us;
  const auto run = engine.run(program, options);
  EXPECT_EQ(run.calls_delayed, expected);
  EXPECT_GT(run.runtime, engine.run(program).runtime);
}

TEST(WlReplay, MismatchedBarriersAreAnErrorNotAnAbort) {
  // Lane 0 waits at a barrier lane 1 never reaches: a deadlocked program.
  Program program;
  for (int t = 0; t < 2; ++t) {
    Lane& lane = program.lanes.emplace_back();
    lane.context_id = t;
    lane.process_id = t;
    lane.kernel_sync(NameRef{"work"}, 10_us);
    if (t == 0) lane.barrier();
  }
  try {
    (void)ReplayEngine{}.run(program);
    FAIL() << "expected rsd::Error";
  } catch (const Error& e) {
    EXPECT_EQ(e.code(), ErrorCode::kInvalidArgument);
    EXPECT_NE(std::string{e.what()}.find("1 of 2 lanes never finished"), std::string::npos)
        << e.what();
  }
}

TEST(WlRoundTrip, FixpointThroughFromTrace) {
  const Program original = blocking_two_lane_program();
  const ReplayEngine engine;
  ReplayOptions capture;
  capture.capture_trace = true;

  const auto first = engine.run(original, capture);
  const Program rebuilt = from_trace(first.trace);
  ASSERT_EQ(rebuilt.lanes.size(), original.lanes.size());

  const auto second = engine.run(rebuilt, capture);
  EXPECT_EQ(second.runtime, first.runtime);
  ASSERT_EQ(second.trace.ops().size(), first.trace.ops().size());
  for (std::size_t i = 0; i < first.trace.ops().size(); ++i) {
    EXPECT_EQ(second.trace.ops()[i].submit, first.trace.ops()[i].submit) << "op " << i;
    EXPECT_EQ(second.trace.ops()[i].end, first.trace.ops()[i].end) << "op " << i;
  }

  // And the loop is closed: reconstructing the *replayed reconstruction*
  // changes nothing further.
  const Program again = from_trace(second.trace);
  const auto third = engine.run(again);
  EXPECT_EQ(third.runtime, first.runtime);
}

TEST(WlRoundTrip, FixpointThroughCsvSchema) {
  const Program original = blocking_two_lane_program();
  const ReplayEngine engine;
  ReplayOptions capture;
  capture.capture_trace = true;
  const auto first = engine.run(original, capture);

  // Export through the NSys-style CSV text — the external-file path.
  std::istringstream csv{first.trace.ops_to_csv()};
  const trace::Trace imported = trace::parse_ops_csv(csv);
  ASSERT_EQ(imported.ops().size(), first.trace.ops().size());
  EXPECT_EQ(imported.ops().front().process_id, first.trace.ops().front().process_id);

  const auto replayed = engine.run(from_trace(imported));
  EXPECT_EQ(replayed.runtime, first.runtime);
}

TEST(WlRoundTrip, AsyncSubmissionInferred) {
  Program program;
  Lane& lane = program.lanes.emplace_back();
  for (int i = 0; i < 3; ++i) lane.kernel(NameRef{"burst"}, 100_us);
  lane.sync();

  const ReplayEngine engine;
  ReplayOptions capture;
  capture.capture_trace = true;
  const auto run = engine.run(program, capture);

  const Program rebuilt = from_trace(run.trace);
  ASSERT_EQ(rebuilt.lanes.size(), 1u);
  std::vector<OpCode> kernels;
  for (const Op& op : rebuilt.lanes[0].ops) {
    if (op.code == OpCode::kKernel || op.code == OpCode::kKernelSync) {
      kernels.push_back(op.code);
    }
  }
  // The first two kernels overlap the next submission (async); the last
  // one is the lane's final device op, inferred blocking.
  ASSERT_EQ(kernels.size(), 3u);
  EXPECT_EQ(kernels[0], OpCode::kKernel);
  EXPECT_EQ(kernels[1], OpCode::kKernel);
  EXPECT_EQ(kernels[2], OpCode::kKernelSync);

  // An async tail is the one inexact reconstruction: the original overlaps
  // the final synchronize's submit cost with device work, the rebuilt
  // program pays it after the inferred-blocking last kernel. Bounded by
  // one API submit cost.
  const SimDuration drift = engine.run(rebuilt).runtime - run.runtime;
  EXPECT_GE(drift, SimDuration::zero());
  EXPECT_LE(drift, gpu::kApiSubmitCost);
}

}  // namespace
}  // namespace rsd::wl

#include "trace/import.hpp"

#include <gtest/gtest.h>

#include <fstream>
#include <sstream>
#include <string>

#include "core/error.hpp"
#include "trace/trace.hpp"

namespace rsd::trace {
namespace {

Trace sample_trace() {
  Trace t;
  gpu::OpRecord k;
  k.kind = gpu::OpKind::kKernel;
  k.name = "sgemm";
  k.context_id = 2;
  k.submit = SimTime{1'000};
  k.start = SimTime{2'000};
  k.end = SimTime{52'000};
  t.add_op(k);
  gpu::OpRecord m;
  m.kind = gpu::OpKind::kMemcpyH2D;
  m.name = "h2d_A";
  m.context_id = 2;
  m.submit = SimTime{60'000};
  m.start = SimTime{61'000};
  m.end = SimTime{161'000};
  m.bytes = 4 * kMiB;
  m.process_id = 1;
  t.add_op(m);
  return t;
}

TEST(TraceImport, RoundTripThroughCsv) {
  const Trace original = sample_trace();
  std::istringstream in{original.ops_to_csv()};
  const Trace parsed = parse_ops_csv(in);

  ASSERT_EQ(parsed.ops().size(), original.ops().size());
  for (std::size_t i = 0; i < parsed.ops().size(); ++i) {
    const auto& a = original.ops()[i];
    const auto& b = parsed.ops()[i];
    EXPECT_EQ(a.kind, b.kind);
    EXPECT_EQ(a.name, b.name);
    EXPECT_EQ(a.context_id, b.context_id);
    EXPECT_EQ(a.submit, b.submit);
    EXPECT_EQ(a.start, b.start);
    EXPECT_EQ(a.end, b.end);
    EXPECT_EQ(a.bytes, b.bytes);
    EXPECT_EQ(a.process_id, b.process_id);
  }
}

TEST(TraceImport, CrlfLineEndings) {
  std::istringstream in{
      "kind,name,context,submit_us,start_us,end_us,bytes\r\n"
      "kernel,k,0,0,1,11,0\r\n"
      "memcpy_h2d,copy,1,20,21,30,512\r\n"};
  const Trace t = parse_ops_csv(in);
  ASSERT_EQ(t.ops().size(), 2u);
  // The '\r' must not leak into the last cell of any row.
  EXPECT_EQ(t.ops()[0].bytes, Bytes{0});
  EXPECT_EQ(t.ops()[1].bytes, Bytes{512});
}

TEST(TraceImport, ProcessColumnIsOptional) {
  {
    std::istringstream in{
        "kind,name,context,process,submit_us,start_us,end_us,bytes\n"
        "kernel,k,2,7,0,1,11,0\n"};
    const Trace t = parse_ops_csv(in);
    ASSERT_EQ(t.ops().size(), 1u);
    EXPECT_EQ(t.ops()[0].context_id, 2);
    EXPECT_EQ(t.ops()[0].process_id, 7);
  }
  {
    // Pre-submitter-identity exports have no process column: default 0.
    std::istringstream in{
        "kind,name,context,submit_us,start_us,end_us,bytes\n"
        "kernel,k,2,0,1,11,0\n"};
    const Trace t = parse_ops_csv(in);
    ASSERT_EQ(t.ops().size(), 1u);
    EXPECT_EQ(t.ops()[0].process_id, 0);
  }
}

TEST(TraceImport, TruncatedLineReportsLineNumber) {
  std::istringstream in{
      "kind,name,context,submit_us,start_us,end_us,bytes\n"
      "kernel,k,0,0,1,11,0\n"
      "kernel,k,0,0\n"};  // truncated mid-row
  try {
    (void)parse_ops_csv(in);
    FAIL() << "expected Error";
  } catch (const Error& e) {
    EXPECT_NE(std::string{e.what()}.find("line 3"), std::string::npos) << e.what();
  }
}

TEST(TraceImport, NonNumericFieldNamesFieldAndLine) {
  std::istringstream in{
      "kind,name,context,submit_us,start_us,end_us,bytes\n"
      "kernel,k,0,0,nope,2,0\n"};
  try {
    (void)parse_ops_csv(in);
    FAIL() << "expected Error";
  } catch (const Error& e) {
    const std::string what{e.what()};
    EXPECT_NE(what.find("line 2"), std::string::npos) << what;
    EXPECT_NE(what.find("start_us"), std::string::npos) << what;
  }
}

TEST(TraceImport, ToleratesExtraColumnsAndBlankLines) {
  std::istringstream in{
      "kind,name,context,submit_us,start_us,end_us,bytes,extra\n"
      "kernel,k1,0,0,1,11,0,whatever\n"
      "\n"
      "memcpy_d2h,copy,1,20,21,30,1048576,x\n"};
  const Trace t = parse_ops_csv(in);
  ASSERT_EQ(t.ops().size(), 2u);
  EXPECT_EQ(t.ops()[0].name, "k1");
  EXPECT_EQ(t.ops()[1].kind, gpu::OpKind::kMemcpyD2H);
  EXPECT_EQ(t.ops()[1].bytes, kMiB);
}

TEST(TraceImport, ReordersColumnsByHeader) {
  std::istringstream in{
      "name,kind,bytes,context,end_us,start_us,submit_us\n"
      "k,kernel,0,3,10,5,4\n"};
  const Trace t = parse_ops_csv(in);
  ASSERT_EQ(t.ops().size(), 1u);
  EXPECT_EQ(t.ops()[0].context_id, 3);
  EXPECT_EQ(t.ops()[0].start, SimTime{5'000});
  EXPECT_EQ(t.ops()[0].end, SimTime{10'000});
}

TEST(TraceImport, QuotedNamesWithCommas) {
  std::istringstream in{
      "kind,name,context,submit_us,start_us,end_us,bytes\n"
      "kernel,\"conv<3,3,3>\",0,0,1,2,0\n"};
  const Trace t = parse_ops_csv(in);
  ASSERT_EQ(t.ops().size(), 1u);
  EXPECT_EQ(t.ops()[0].name, "conv<3,3,3>");
}

TEST(TraceImport, ErrorsAreSpecific) {
  {
    std::istringstream in{""};
    EXPECT_THROW((void)parse_ops_csv(in), Error);
  }
  {
    std::istringstream in{"kind,name\nkernel,k\n"};  // missing columns
    EXPECT_THROW((void)parse_ops_csv(in), Error);
  }
  {
    std::istringstream in{
        "kind,name,context,submit_us,start_us,end_us,bytes\n"
        "warp,k,0,0,1,2,0\n"};  // bad kind
    EXPECT_THROW((void)parse_ops_csv(in), Error);
  }
  {
    std::istringstream in{
        "kind,name,context,submit_us,start_us,end_us,bytes\n"
        "kernel,k,0,0,nope,2,0\n"};  // bad number
    EXPECT_THROW((void)parse_ops_csv(in), Error);
  }
  {
    std::istringstream in{
        "kind,name,context,submit_us,start_us,end_us,bytes\n"
        "kernel,k,0,0,5,2,0\n"};  // end before start
    EXPECT_THROW((void)parse_ops_csv(in), Error);
  }
  {
    std::istringstream in{
        "kind,name,context,submit_us,start_us,end_us,bytes\n"
        "kernel,k,0,0,1,2,0\n"
        "kernel,k,0,3,2,4,0\n"};  // started before it was submitted
    try {
      (void)parse_ops_csv(in);
      ADD_FAILURE() << "accepted an op that starts before its submit";
    } catch (const Error& e) {
      const std::string what{e.what()};
      EXPECT_EQ(e.code(), ErrorCode::kInvalidArgument) << what;
      EXPECT_NE(what.find("line 3"), std::string::npos) << what;
      EXPECT_NE(what.find("start before submit"), std::string::npos) << what;
    }
  }
  // Numeric cells are validated before any cast to an integer type; each
  // rejection names the line and the field. The grammar is decimal only,
  // with nothing around the number: a leading blank or '+' and a hex value
  // are bad values, and so is a subnormal magnitude (strtod's range error).
  // Each row would be valid with the cell read as 5 (or 16, or 0).
  struct BadCell {
    const char* row;
    const char* field;
  };
  for (const BadCell& bad : {
           BadCell{"kernel,k,nan,0,0,1,2,0", "context"},
           BadCell{"kernel,k,0.5,0,0,1,2,0", "context"},
           BadCell{"kernel,k,3e9,0,0,1,2,0", "context"},
           BadCell{"kernel,k,0,1.5,0,1,2,0", "process"},
           BadCell{"kernel,k,0,-3e9,0,1,2,0", "process"},
           BadCell{"kernel,k,0,0,-1,1,2,0", "submit_us"},
           BadCell{"kernel,k,0,0,0,-2,2,0", "start_us"},
           BadCell{"kernel,k,0,0,0,1,1e300,0", "end_us"},
           BadCell{"kernel,k,0,0,0,1,inf,0", "end_us"},
           BadCell{"memcpy_h2d,k,0,0,0,1,2,-5", "bytes"},
           BadCell{"memcpy_h2d,k,0,0,0,1,2,1.5", "bytes"},
           BadCell{"memcpy_h2d,k,0,0,0,1,2,1e20", "bytes"},
           BadCell{"kernel,k, 5,0,0,1,2,0", "context"},
           BadCell{"kernel,k,0,\t5,0,1,2,0", "process"},
           BadCell{"kernel,k,0,0,0,\r1,2,0", "start_us"},
           BadCell{"kernel,k,0,0,0,1,+5,0", "end_us"},
           BadCell{"memcpy_h2d,k,0,0,0,1,2,0x10", "bytes"},
           BadCell{"kernel,k,0,0,1e-320,1,2,0", "submit_us"},
       }) {
    std::istringstream in{std::string{"kind,name,context,process,submit_us,start_us,end_us,"
                                      "bytes\n"} +
                          bad.row + "\n"};
    try {
      (void)parse_ops_csv(in);
      ADD_FAILURE() << "accepted " << bad.row;
    } catch (const Error& e) {
      const std::string what{e.what()};
      EXPECT_EQ(e.code(), ErrorCode::kInvalidArgument) << what;
      EXPECT_NE(what.find("line 2"), std::string::npos) << what;
      EXPECT_NE(what.find(bad.field), std::string::npos) << what;
    }
  }
}

TEST(TraceImport, LoadFromMissingFileThrows) {
  EXPECT_THROW((void)load_ops_csv("/nonexistent/path/trace.csv"), Error);
}

TEST(TraceImport, SaveLoadFileRoundTrip) {
  const Trace original = sample_trace();
  const std::string path = testing::TempDir() + "/rsd_trace_roundtrip.csv";
  {
    std::ofstream out{path};
    out << original.ops_to_csv();
  }
  const Trace loaded = load_ops_csv(path);
  EXPECT_EQ(loaded.ops().size(), 2u);
  EXPECT_EQ(loaded.kernel_count(), 1u);
}

}  // namespace
}  // namespace rsd::trace

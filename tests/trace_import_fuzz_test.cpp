// Differential fuzzing of the trace CSV reader: seeded byte and line
// mutations of small captured proxy, LAMMPS and CosmoFlow exports go
// through trace::parse_ops_csv and through a reference parser, the
// earlier getline/stod reader kept verbatim below. Both must accept with
// identical ops or both throw rsd::Error with the same message. Every
// mutant the reader accepts then goes on through the rest of the paper's
// "trace in, penalty bounds out" pipeline — SlackModel::predict,
// wl::from_trace and a replay — where each stage must end in rsd::Error or
// a clean result, and nothing may abort.
//
// The reader's number grammar is narrower than strtod's on purpose: a
// cell with a leading blank or '+', or a hex value, is a bad numeric
// value (see import.hpp). Mutations therefore never insert blanks, '+',
// 'x' or 'X'; TraceImport.ErrorsAreSpecific pins those cells instead.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <map>
#include <random>
#include <sstream>
#include <stdexcept>
#include <string>
#include <string_view>
#include <variant>
#include <vector>

#include "apps/cosmoflow.hpp"
#include "apps/lammps.hpp"
#include "core/error.hpp"
#include "model/response_surface.hpp"
#include "model/slack_model.hpp"
#include "proxy/proxy.hpp"
#include "trace/import.hpp"
#include "trace/trace.hpp"
#include "wl/from_trace.hpp"
#include "wl/replay.hpp"

namespace rsd::trace {
namespace {

// ---------------------------------------------------------------------------
// Reference oracle: the line-by-line reader (std::getline, one
// std::vector<std::string> per row, std::stod), unchanged.
namespace reference {

std::vector<std::string> split_csv_line(const std::string& line) {
  std::vector<std::string> cells;
  std::string cell;
  bool quoted = false;
  for (std::size_t i = 0; i < line.size(); ++i) {
    const char c = line[i];
    if (quoted) {
      if (c == '"') {
        if (i + 1 < line.size() && line[i + 1] == '"') {
          cell += '"';
          ++i;
        } else {
          quoted = false;
        }
      } else {
        cell += c;
      }
    } else if (c == '"') {
      quoted = true;
    } else if (c == ',') {
      cells.push_back(std::move(cell));
      cell.clear();
    } else {
      cell += c;
    }
  }
  cells.push_back(std::move(cell));
  return cells;
}

/// Tools on Windows (and NSys exports moved through them) write CRLF line
/// endings; std::getline leaves the '\r' on the last cell.
void strip_cr(std::string& line) {
  if (!line.empty() && line.back() == '\r') line.pop_back();
}

[[noreturn]] void fail(std::size_t line_no, const std::string& message) {
  throw Error{ErrorCode::kInvalidArgument,
              "trace CSV line " + std::to_string(line_no) + ": " + message};
}

gpu::OpKind parse_kind(const std::string& s, std::size_t line_no) {
  if (s == "kernel") return gpu::OpKind::kKernel;
  if (s == "memcpy_h2d") return gpu::OpKind::kMemcpyH2D;
  if (s == "memcpy_d2h") return gpu::OpKind::kMemcpyD2H;
  fail(line_no, "unknown op kind '" + s + "'");
}

/// A finite numeric cell. Every integer field is range-checked against
/// this value before its cast: converting an out-of-range double to an
/// integer type is undefined behaviour.
double parse_double(const std::string& s, std::size_t line_no, const char* field) {
  double v = 0.0;
  try {
    std::size_t pos = 0;
    v = std::stod(s, &pos);
    if (pos != s.size()) throw std::invalid_argument{s};
  } catch (const std::exception&) {
    fail(line_no, std::string{"bad numeric value '"} + s + "' for " + field);
  }
  if (!std::isfinite(v)) fail(line_no, "non-finite value '" + s + "' for " + field);
  return v;
}

/// An integral cell that `Int` represents exactly: within [lowest, 2^digits).
template <typename Int>
Int parse_integral(const std::string& s, std::size_t line_no, const char* field) {
  const double v = parse_double(s, line_no, field);
  if (v != std::trunc(v)) fail(line_no, "non-integral value '" + s + "' for " + field);
  if (v < static_cast<double>(std::numeric_limits<Int>::lowest()) ||
      v >= std::ldexp(1.0, std::numeric_limits<Int>::digits)) {
    fail(line_no, "out-of-range value '" + s + "' for " + field);
  }
  return static_cast<Int>(v);
}

/// A non-negative timestamp cell in microseconds, as nanoseconds.
SimTime parse_time_us(const std::string& s, std::size_t line_no, const char* field) {
  const double us = parse_double(s, line_no, field);
  if (us < 0.0) fail(line_no, "negative value '" + s + "' for " + field);
  const double ns = us * 1e3;
  if (ns >= std::ldexp(1.0, std::numeric_limits<std::int64_t>::digits)) {
    fail(line_no, "out-of-range value '" + s + "' for " + field);
  }
  return SimTime{static_cast<std::int64_t>(ns)};
}

Trace parse_ops_csv(std::istream& input) {
  std::string line;
  if (!std::getline(input, line)) {
    throw Error{ErrorCode::kInvalidArgument, "trace CSV: empty input"};
  }

  // Map required column names to indices (tolerating extra columns and any
  // column order).
  strip_cr(line);
  const auto header = split_csv_line(line);
  std::map<std::string, std::size_t> columns;
  for (std::size_t i = 0; i < header.size(); ++i) columns[header[i]] = i;
  for (const char* required :
       {"kind", "name", "context", "submit_us", "start_us", "end_us", "bytes"}) {
    if (columns.find(required) == columns.end()) {
      throw Error{ErrorCode::kInvalidArgument,
                  std::string{"trace CSV: missing column '"} + required + "'"};
    }
  }

  // "process" is optional (older exports predate submitter identity; NSys
  // traces of single-process applications may omit it).
  const auto process_column = columns.find("process");

  Trace trace;
  std::size_t line_no = 1;
  while (std::getline(input, line)) {
    ++line_no;
    strip_cr(line);
    if (line.empty()) continue;
    const auto cells = split_csv_line(line);
    if (cells.size() < header.size()) fail(line_no, "too few columns");

    gpu::OpRecord op;
    op.kind = parse_kind(cells[columns["kind"]], line_no);
    op.name = cells[columns["name"]];
    op.context_id = parse_integral<int>(cells[columns["context"]], line_no, "context");
    if (process_column != columns.end()) {
      op.process_id = parse_integral<int>(cells[process_column->second], line_no, "process");
    }
    op.submit = parse_time_us(cells[columns["submit_us"]], line_no, "submit_us");
    op.start = parse_time_us(cells[columns["start_us"]], line_no, "start_us");
    op.end = parse_time_us(cells[columns["end_us"]], line_no, "end_us");
    op.bytes = parse_integral<Bytes>(cells[columns["bytes"]], line_no, "bytes");
    if (op.start < op.submit) fail(line_no, "start before submit");
    if (op.end < op.start) fail(line_no, "end before start");
    trace.add_op(std::move(op));
  }
  return trace;
}

}  // namespace reference

// ---------------------------------------------------------------------------
// Seed texts: the header plus kBlocks runs of kBlockRows consecutive rows,
// spread over a small capture so every seed mixes kernels and copies.

constexpr std::size_t kBlocks = 4;
constexpr std::size_t kBlockRows = 8;
constexpr int kCasesPerSeed = 2000;

std::string seed_text(const Trace& captured) {
  std::istringstream in{captured.ops_to_csv()};
  std::vector<std::string> lines;
  for (std::string line; std::getline(in, line);) lines.push_back(line);
  std::string text = lines.at(0) + "\n";
  const std::size_t rows = lines.size() - 1;
  for (std::size_t b = 0; b < kBlocks; ++b) {
    const std::size_t first = 1 + b * rows / kBlocks;
    for (std::size_t r = first; r < std::min(first + kBlockRows, lines.size()); ++r) {
      text += lines[r] + "\n";
    }
  }
  return text;
}

std::string proxy_seed() {
  proxy::ProxyConfig cfg;
  cfg.matrix_n = 1024;
  cfg.threads = 2;
  cfg.min_iterations = cfg.max_iterations = 8;
  cfg.capture_trace = true;
  const proxy::ProxyResult r = proxy::ProxyRunner{}.run(cfg);
  return r.trace ? seed_text(*r.trace) : std::string{};
}

std::string lammps_seed() {
  apps::LammpsConfig cfg;
  cfg.box = 60;
  cfg.procs = 2;
  cfg.steps = 4;
  cfg.capture_trace = true;
  return seed_text(apps::run_lammps(cfg).trace);
}

std::string cosmoflow_seed() {
  apps::CosmoflowConfig cfg;
  cfg.epochs = 1;
  cfg.batch = 4;
  cfg.train_items = 16;
  cfg.validation_items = 4;
  cfg.capture_trace = true;
  return seed_text(apps::run_cosmoflow(cfg).trace);
}

// ---------------------------------------------------------------------------
// Mutations.

/// A byte to insert or overwrite with: half the time one that CSV cells
/// and numbers are made of, otherwise any byte outside the documented
/// grammar difference (blanks, '+', and the hex marker).
char mutation_byte(std::mt19937_64& rng) {
  using namespace std::string_view_literals;
  static constexpr std::string_view kSyntax = "0123456789.-eE,\"\nnaifNAIF()\0"sv;
  static constexpr std::string_view kExcluded = " \t\r\v\f+xX"sv;
  if (rng() % 2 == 0) return kSyntax[rng() % kSyntax.size()];
  for (;;) {
    const char c = static_cast<char>(rng() % 256);
    if (kExcluded.find(c) == std::string_view::npos) return c;
  }
}

/// [begin, end) of the line holding byte `pos`, its '\n' excluded.
std::pair<std::size_t, std::size_t> line_around(const std::string& text, std::size_t pos) {
  const std::size_t nl = pos == 0 ? std::string::npos : text.rfind('\n', pos - 1);
  const std::size_t begin = nl == std::string::npos ? 0 : nl + 1;
  const std::size_t end = std::min(text.find('\n', begin), text.size());
  return {begin, end};
}

void mutate(std::string& text, std::mt19937_64& rng) {
  const std::size_t pos = text.empty() ? 0 : rng() % text.size();
  switch (rng() % 9) {
    case 0:  // replace a byte
      if (!text.empty()) text[pos] = mutation_byte(rng);
      break;
    case 1:  // insert a byte
      text.insert(pos, 1, mutation_byte(rng));
      break;
    case 2:  // delete 1-3 bytes
      text.erase(pos, 1 + rng() % 3);
      break;
    case 3:  // NUL byte
      text.insert(pos, 1, '\0');
      break;
    case 4:  // stray comma
      text.insert(pos, 1, ',');
      break;
    case 5:  // stray quote
      text.insert(pos, 1, '"');
      break;
    case 6: {  // cut a line short
      const auto [begin, end] = line_around(text, pos);
      text.erase(pos, end - std::max(pos, begin));
      break;
    }
    case 7: {  // duplicate a line
      const auto [begin, end] = line_around(text, pos);
      text.insert(begin, text.substr(begin, end - begin) + "\n");
      break;
    }
    default:  // drop everything after a byte
      text.resize(pos);
      break;
  }
}

/// Every "\n" becomes "\r\n".
std::string to_crlf(const std::string& text) {
  std::string out;
  for (const char c : text) {
    if (c == '\n') out += '\r';
    out += c;
  }
  return out;
}

/// Case `i` of a seed's sequence: case 0 is the seed itself and case 1 its
/// CRLF form; later cases carry 1-3 mutations, a quarter of them in CRLF.
std::string mutant(const std::string& seed, int i, std::mt19937_64& rng) {
  std::string text = seed;
  const int mutations = i < 2 ? 0 : 1 + static_cast<int>(rng() % 3);
  for (int m = 0; m < mutations; ++m) mutate(text, rng);
  if (i == 1 || (i >= 2 && rng() % 4 == 0)) text = to_crlf(text);
  return text;
}

// ---------------------------------------------------------------------------
// Comparison.

/// Accepted ops, or the message of the rsd::Error thrown.
using Outcome = std::variant<std::vector<gpu::OpRecord>, std::string>;

template <typename Parse>
Outcome run_parser(Parse parse, const std::string& text) {
  std::istringstream in{text};
  try {
    return parse(in).ops();
  } catch (const Error& e) {
    return std::string{e.what()};
  }
}

bool same_ops(const std::vector<gpu::OpRecord>& a, const std::vector<gpu::OpRecord>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i].kind != b[i].kind || a[i].name.view() != b[i].name.view() ||
        a[i].context_id != b[i].context_id || a[i].process_id != b[i].process_id ||
        a[i].submit != b[i].submit || a[i].start != b[i].start || a[i].end != b[i].end ||
        a[i].bytes != b[i].bytes) {
      return false;
    }
  }
  return true;
}

std::string describe(const Outcome& o) {
  if (const auto* what = std::get_if<std::string>(&o)) return "throws: " + *what;
  return "accepts " + std::to_string(std::get<0>(o).size()) + " ops";
}

/// Printable form of a mutated text for a failure message.
std::string escaped(const std::string& text) {
  std::string out;
  for (const char c : text) {
    const auto u = static_cast<unsigned char>(c);
    if (c == '\n') {
      out += "\\n\n";
    } else if (u < 0x20 || u >= 0x7f) {
      static constexpr char kHex[] = "0123456789abcdef";
      out += "\\x";
      out += kHex[u >> 4];
      out += kHex[u & 0xf];
    } else {
      out += c;
    }
  }
  return out;
}

struct Seed {
  const char* app;
  std::string (*capture)();
  std::uint64_t rng_seed;
};

// gtest would print the struct's bytes, pointers included, into the test
// names, which would then change from build to build.
void PrintTo(const Seed& seed, std::ostream* os) { *os << seed.app; }

class TraceImportFuzz : public testing::TestWithParam<Seed> {};

TEST_P(TraceImportFuzz, MatchesReferenceParser) {
  const std::string seed = GetParam().capture();
  ASSERT_GT(seed.size(), 0u);
  std::mt19937_64 rng{GetParam().rng_seed};

  int accepted = 0;
  int rejected = 0;
  int disagreements = 0;
  for (int i = 0; i < kCasesPerSeed; ++i) {
    const std::string text = mutant(seed, i, rng);
    const Outcome got = run_parser([](std::istream& in) { return parse_ops_csv(in); }, text);
    const Outcome want =
        run_parser([](std::istream& in) { return reference::parse_ops_csv(in); }, text);
    const auto* got_ops = std::get_if<0>(&got);
    const auto* want_ops = std::get_if<0>(&want);
    const bool agree = got_ops != nullptr && want_ops != nullptr
                           ? same_ops(*got_ops, *want_ops)
                           : got_ops == nullptr && want_ops == nullptr &&
                                 std::get<1>(got) == std::get<1>(want);
    if (!agree && ++disagreements <= 3) {
      ADD_FAILURE() << GetParam().app << " case " << i << ": parse_ops_csv "
                    << describe(got) << "; reference " << describe(want) << "\ntext:\n"
                    << escaped(text);
    }
    (want_ops != nullptr ? accepted : rejected) += 1;
  }
  EXPECT_EQ(disagreements, 0);
  // Both paths must be exercised, or agreement proves little.
  EXPECT_GE(accepted, kCasesPerSeed / 20);
  EXPECT_GE(rejected, kCasesPerSeed / 20);
}

/// A tiny proxy response surface (sizes 512 and 2048 at 1 and 2 threads,
/// 0 and 10 us slack: 8 cells), built once per process.
const model::SlackModel& tiny_model() {
  static const model::SlackModel model = [] {
    proxy::SweepConfig cfg;
    cfg.matrix_sizes = {512, 2048};
    cfg.thread_counts = {1, 2};
    cfg.slacks = {SimDuration::zero(), duration::microseconds(10.0)};
    cfg.target_compute = duration::milliseconds(20.0);
    return model::SlackModel{
        model::ResponseSurface::from_sweep(proxy::run_slack_sweep(proxy::ProxyRunner{}, cfg))};
  }();
  return model;
}

/// A penalty band a prediction may report: 0 <= lower <= upper < inf.
bool clean_bounds(const model::PenaltyBounds& b) {
  return b.lower >= 0.0 && b.lower <= b.upper && std::isfinite(b.upper);
}

TEST_P(TraceImportFuzz, AcceptedMutantsReplay) {
  const std::string seed = GetParam().capture();
  ASSERT_GT(seed.size(), 0u);
  std::mt19937_64 rng{GetParam().rng_seed};
  const model::SlackModel& model = tiny_model();
  const SimDuration slack = duration::microseconds(10.0);
  wl::ReplayOptions options;
  options.slack = slack;

  int accepted = 0;
  int replayed = 0;
  for (int i = 0; i < kCasesPerSeed; ++i) {
    const std::string text = mutant(seed, i, rng);
    std::istringstream in{text};
    Trace trace;
    try {
      trace = parse_ops_csv(in);
    } catch (const Error&) {
      continue;
    }
    ++accepted;
    const std::string label = std::string{GetParam().app} + " case " + std::to_string(i);
    try {
      const model::SlackPrediction p = model.predict(trace, 2, slack);
      EXPECT_TRUE(clean_bounds(p.kernel) && clean_bounds(p.memory) && clean_bounds(p.total))
          << label << ": kernel [" << p.kernel.lower << ", " << p.kernel.upper << "] memory ["
          << p.memory.lower << ", " << p.memory.upper << "] total [" << p.total.lower << ", "
          << p.total.upper << "]\ntext:\n"
          << escaped(text);
    } catch (const Error&) {
    }
    try {
      const wl::ReplayResult r = wl::ReplayEngine{}.run(wl::from_trace(trace), options);
      EXPECT_GE(r.runtime, SimDuration::zero()) << label << "\ntext:\n" << escaped(text);
      ++replayed;
    } catch (const Error&) {
    }
  }
  // The later stages must see mutants, or surviving them proves little.
  EXPECT_GE(accepted, kCasesPerSeed / 20);
  EXPECT_GT(replayed, 0);
}

INSTANTIATE_TEST_SUITE_P(Captures, TraceImportFuzz,
                         testing::Values(Seed{"proxy", proxy_seed, 1},
                                         Seed{"lammps", lammps_seed, 2},
                                         Seed{"cosmoflow", cosmoflow_seed, 3}),
                         [](const testing::TestParamInfo<Seed>& info) {
                           return std::string{info.param.app};
                         });

}  // namespace
}  // namespace rsd::trace

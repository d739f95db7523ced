#include "trace/import.hpp"

#include <algorithm>
#include <array>
#include <charconv>
#include <cmath>
#include <cstdint>
#include <fstream>
#include <istream>
#include <limits>
#include <string_view>
#include <vector>

#include "core/error.hpp"

namespace rsd::trace {

namespace {

/// The rest of the stream, read through its streambuf into one buffer.
std::string read_all(std::istream& input) {
  std::string text;
  const std::istream::sentry ok{input, /*noskipws=*/true};
  if (!ok) return text;
  std::streambuf& buf = *input.rdbuf();
  text.reserve(static_cast<std::size_t>(std::max<std::streamsize>(buf.in_avail(), 0)));
  char chunk[1 << 14];
  while (const std::streamsize got = buf.sgetn(chunk, sizeof chunk)) {
    text.append(chunk, static_cast<std::size_t>(got));
  }
  input.setstate(std::ios_base::eofbit);
  return text;
}

/// One CSV line split into cells. A cell without a '"' is a view into the
/// line; a cell with one is unescaped into `unescaped`, which is sized to
/// the line first, so every view into it stays valid for the whole row.
struct CsvRow {
  std::vector<std::string_view> cells;
  std::string unescaped;

  void split(std::string_view line) {
    cells.clear();
    unescaped.clear();
    unescaped.reserve(line.size());
    std::size_t i = 0;
    for (;;) {
      std::size_t j = i;
      while (j < line.size() && line[j] != ',' && line[j] != '"') ++j;
      if (j == line.size() || line[j] == ',') {
        cells.push_back(line.substr(i, j - i));
      } else {
        // A quote toggles quoting anywhere in a cell; "" inside quotes is a
        // literal quote, and a comma inside quotes is part of the cell.
        const std::size_t begin = unescaped.size();
        unescaped.append(line.substr(i, j - i));
        bool quoted = false;
        for (; j < line.size(); ++j) {
          const char c = line[j];
          if (quoted) {
            if (c != '"') {
              unescaped += c;
            } else if (j + 1 < line.size() && line[j + 1] == '"') {
              unescaped += '"';
              ++j;
            } else {
              quoted = false;
            }
          } else if (c == '"') {
            quoted = true;
          } else if (c == ',') {
            break;
          } else {
            unescaped += c;
          }
        }
        cells.push_back(std::string_view{unescaped}.substr(begin));
      }
      if (j == line.size()) return;
      i = j + 1;
    }
  }
};

[[noreturn]] void fail(std::size_t line_no, const std::string& message) {
  throw Error{ErrorCode::kInvalidArgument,
              "trace CSV line " + std::to_string(line_no) + ": " + message};
}

[[noreturn]] void fail_value(std::size_t line_no, const char* what, std::string_view s,
                             const char* field) {
  fail(line_no, std::string{what} + " '" + std::string{s} + "' for " + field);
}

gpu::OpKind parse_kind(std::string_view s, std::size_t line_no) {
  if (s == "kernel") return gpu::OpKind::kKernel;
  if (s == "memcpy_h2d") return gpu::OpKind::kMemcpyH2D;
  if (s == "memcpy_d2h") return gpu::OpKind::kMemcpyD2H;
  fail(line_no, "unknown op kind '" + std::string{s} + "'");
}

/// A finite numeric cell. Every integer field is range-checked against
/// this value before its cast: converting an out-of-range double to an
/// integer type is undefined behaviour.
double parse_double(std::string_view s, std::size_t line_no, const char* field) {
  double v = 0.0;
  const char* const end = s.data() + s.size();
  const auto [ptr, ec] = std::from_chars(s.data(), end, v);
  // from_chars returns subnormal magnitudes where strtod reports a range
  // error; they are rejected like any other underflow.
  if (ec != std::errc{} || ptr != end ||
      (v != 0.0 && std::abs(v) < std::numeric_limits<double>::min())) {
    fail_value(line_no, "bad numeric value", s, field);
  }
  if (!std::isfinite(v)) fail_value(line_no, "non-finite value", s, field);
  return v;
}

/// An integral cell that `Int` represents exactly: within [lowest, 2^digits).
template <typename Int>
Int parse_integral(std::string_view s, std::size_t line_no, const char* field) {
  const double v = parse_double(s, line_no, field);
  if (v != std::trunc(v)) fail_value(line_no, "non-integral value", s, field);
  if (v < static_cast<double>(std::numeric_limits<Int>::lowest()) ||
      v >= std::ldexp(1.0, std::numeric_limits<Int>::digits)) {
    fail_value(line_no, "out-of-range value", s, field);
  }
  return static_cast<Int>(v);
}

/// A non-negative timestamp cell in microseconds, as nanoseconds.
SimTime parse_time_us(std::string_view s, std::size_t line_no, const char* field) {
  const double us = parse_double(s, line_no, field);
  if (us < 0.0) fail_value(line_no, "negative value", s, field);
  const double ns = us * 1e3;
  if (ns >= std::ldexp(1.0, std::numeric_limits<std::int64_t>::digits)) {
    fail_value(line_no, "out-of-range value", s, field);
  }
  return SimTime{static_cast<std::int64_t>(ns)};
}

// Columns by name, required ones first in the order they are checked.
enum Column : std::size_t { kKind, kName, kContext, kSubmit, kStart, kEnd, kBytes, kProcess };
constexpr std::array<std::string_view, 8> kColumnNames{
    "kind", "name", "context", "submit_us", "start_us", "end_us", "bytes", "process"};
constexpr std::size_t kRequiredColumns = kProcess;
constexpr std::size_t kAbsent = std::numeric_limits<std::size_t>::max();

}  // namespace

Trace parse_ops_csv(std::istream& input) {
  const std::string text = read_all(input);
  // Lines as std::getline counts them: split on '\n', a last line without
  // one included. Tools on Windows (and NSys exports moved through them)
  // write CRLF line endings, so one trailing '\r' is stripped.
  std::size_t pos = 0;
  std::string_view line;
  const auto next_line = [&] {
    if (pos >= text.size()) return false;
    const std::size_t end = std::min(text.find('\n', pos), text.size());
    line = std::string_view{text}.substr(pos, end - pos);
    if (!line.empty() && line.back() == '\r') line.remove_suffix(1);
    pos = end + 1;
    return true;
  };
  if (!next_line()) throw Error{ErrorCode::kInvalidArgument, "trace CSV: empty input"};

  // Resolve column indices once (tolerating extra columns and any column
  // order; for a repeated name the last one wins).
  CsvRow row;
  row.split(line);
  const std::size_t header_size = row.cells.size();
  std::array<std::size_t, kColumnNames.size()> at;
  at.fill(kAbsent);
  for (std::size_t i = 0; i < header_size; ++i) {
    for (std::size_t c = 0; c < kColumnNames.size(); ++c) {
      if (row.cells[i] == kColumnNames[c]) at[c] = i;
    }
  }
  for (std::size_t c = 0; c < kRequiredColumns; ++c) {
    if (at[c] == kAbsent) {
      throw Error{ErrorCode::kInvalidArgument,
                  "trace CSV: missing column '" + std::string{kColumnNames[c]} + "'"};
    }
  }
  // "process" is optional (older exports predate submitter identity; NSys
  // traces of single-process applications may omit it).
  const bool has_process = at[kProcess] != kAbsent;

  Trace trace;
  std::size_t line_no = 1;
  while (next_line()) {
    ++line_no;
    if (line.empty()) continue;
    row.split(line);
    const auto& cells = row.cells;
    if (cells.size() < header_size) fail(line_no, "too few columns");

    gpu::OpRecord op;
    op.kind = parse_kind(cells[at[kKind]], line_no);
    op.name = cells[at[kName]];
    op.context_id = parse_integral<int>(cells[at[kContext]], line_no, "context");
    if (has_process) op.process_id = parse_integral<int>(cells[at[kProcess]], line_no, "process");
    op.submit = parse_time_us(cells[at[kSubmit]], line_no, "submit_us");
    op.start = parse_time_us(cells[at[kStart]], line_no, "start_us");
    op.end = parse_time_us(cells[at[kEnd]], line_no, "end_us");
    op.bytes = parse_integral<Bytes>(cells[at[kBytes]], line_no, "bytes");
    if (op.start < op.submit) fail(line_no, "start before submit");
    if (op.end < op.start) fail(line_no, "end before start");
    trace.add_op(op);
  }
  return trace;
}

Trace load_ops_csv(const std::string& path) {
  std::ifstream in{path};
  if (!in) throw Error{ErrorCode::kNotFound, "cannot open trace CSV: " + path};
  return parse_ops_csv(in);
}

}  // namespace rsd::trace

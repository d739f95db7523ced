#include "trace/import.hpp"

#include <cmath>
#include <cstdint>
#include <cstring>
#include <fstream>
#include <istream>
#include <limits>
#include <map>
#include <sstream>
#include <vector>

#include "core/error.hpp"

namespace rsd::trace {

namespace {

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

}  // namespace

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

Trace load_ops_csv(const std::string& path) {
  std::ifstream in{path};
  if (!in) throw Error{ErrorCode::kNotFound, "cannot open trace CSV: " + path};
  return parse_ops_csv(in);
}

}  // namespace rsd::trace

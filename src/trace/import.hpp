// Trace import: load device-op traces from the CSV schema written by
// Trace::ops_to_csv(). This is the bridge for profiling *real*
// applications: export an NSight Systems capture to this schema (kind,
// name, context, timestamps, bytes) and feed it to the slack model.
#pragma once

#include <iosfwd>
#include <string>

#include "trace/trace.hpp"

namespace rsd::trace {

/// Parse a trace from CSV text. The first line must be the header produced
/// by Trace::ops_to_csv (extra columns are ignored; required columns are
/// kind, name, context, submit_us, start_us, end_us, bytes). Throws
/// rsd::Error{kInvalidArgument} with a line number on malformed input,
/// including an op whose timestamps break submit <= start <= end.
///
/// Lines end at '\n' (one trailing '\r' is dropped; blank lines are
/// skipped but counted). Cells follow RFC 4180 quoting within one line. A
/// numeric cell is decimal digits with an optional leading '-', an
/// optional fraction and an optional exponent, with nothing around them:
/// a leading blank or '+', a hex value and a subnormal magnitude are all
/// bad numeric values. The spellings inf and nan parse, and are then
/// rejected as non-finite.
[[nodiscard]] Trace parse_ops_csv(std::istream& input);

/// Convenience: read from a file. Throws on I/O failure.
[[nodiscard]] Trace load_ops_csv(const std::string& path);

}  // namespace rsd::trace

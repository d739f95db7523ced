// Minimal CSV writer so every bench can also emit machine-readable series
// (one file per figure) next to its ASCII table.
#pragma once

#include <charconv>
#include <fstream>
#include <stdexcept>
#include <string>
#include <string_view>
#include <type_traits>

namespace rsd {

/// Streaming CSV writer with RFC-4180-style quoting for cells that need it.
/// Cells are formatted straight into one buffer: doubles as printf's
/// "%.12g" (the bytes an ostream writes at precision 12), integers in
/// decimal.
class CsvWriter {
 public:
  /// Writes to an in-memory buffer; call `str()` to retrieve.
  CsvWriter() = default;

  template <typename... Cells>
  void row(const Cells&... cells) {
    const char* sep = "";
    ((buf_ += sep, append(cells), sep = ","), ...);
    buf_ += '\n';
  }

  [[nodiscard]] std::string str() const { return buf_; }

  /// Write accumulated contents to a file; throws on I/O failure.
  void save(const std::string& path) const {
    std::ofstream out{path};
    if (!out) throw std::runtime_error{"CsvWriter: cannot open " + path};
    out << buf_;
    if (!out) throw std::runtime_error{"CsvWriter: write failed for " + path};
  }

 private:
  /// Also accepts anything convertible to a view (e.g. an interned NameRef).
  void append(std::string_view s) {
    if (s.find_first_of(",\"\n") == std::string_view::npos) {
      buf_ += s;
      return;
    }
    buf_ += '"';
    for (const char c : s) {
      if (c == '"') buf_ += '"';
      buf_ += c;
    }
    buf_ += '"';
  }

  void append(double v) {
    char out[32];
    buf_.append(out, std::to_chars(out, out + sizeof out, v, std::chars_format::general, 12).ptr);
  }

  template <typename T>
    requires std::is_integral_v<T>
  void append(T v) {
    char out[24];
    // Unary + promotes bool and char to int, as std::to_string does.
    buf_.append(out, std::to_chars(out, out + sizeof out, +v).ptr);
  }

  std::string buf_;
};

}  // namespace rsd

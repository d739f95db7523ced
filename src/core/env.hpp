// Integer knobs. The environment variables (RSD_THREADS, RSD_SIM_THREADS,
// RSD_GPUS_PER_CHASSIS, RSD_TRACE_BUFFER) and rsd_bench's integer flags
// (--threads, --sim-threads, --gpus-per-chassis, --runs, --seed) share one
// token rule, `parse_integer`, so each accepts the same tokens and rejects
// the rest with an error that names the variable or flag.
#pragma once

#include <charconv>
#include <cstdlib>
#include <optional>
#include <string>
#include <string_view>
#include <system_error>

#include "core/error.hpp"

namespace rsd {

/// `text` as a T: a whole decimal token (no blanks, no '+', and no sign at
/// all for an unsigned T) whose value is in [min, max of T]. std::nullopt
/// for anything else, a value out of T's range included — never a value
/// wrapped or truncated into range.
template <typename T>
[[nodiscard]] std::optional<T> parse_integer(std::string_view text, T min) {
  T value{};
  const char* const last = text.data() + text.size();
  const auto [end, ec] = std::from_chars(text.data(), last, value);
  if (ec != std::errc{} || end != last || value < min) return std::nullopt;
  return value;
}

/// The count in environment variable `name`: std::nullopt when it is unset
/// or empty, else a whole decimal token >= 1. Anything else (`0`, `-3`,
/// `4x`, ` 4`, `+4`, a value past INT_MAX) throws
/// rsd::Error{kInvalidArgument} naming the variable and the value.
[[nodiscard]] inline std::optional<int> env_count(const char* name) {
  const char* env = std::getenv(name);
  if (env == nullptr || env[0] == '\0') return std::nullopt;
  const std::optional<int> value = parse_integer(std::string_view{env}, 1);
  if (!value) {
    throw Error{ErrorCode::kInvalidArgument,
                std::string{name} + " expects an integer >= 1, got '" + env + "'"};
  }
  return value;
}

}  // namespace rsd

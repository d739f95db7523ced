// Integer environment knobs. RSD_THREADS, RSD_SIM_THREADS,
// RSD_GPUS_PER_CHASSIS and RSD_TRACE_BUFFER share this one parser, so each
// accepts the same tokens and rejects the rest with an error that names
// the variable.
#pragma once

#include <charconv>
#include <cstdlib>
#include <optional>
#include <string>
#include <string_view>

#include "core/error.hpp"

namespace rsd {

/// The count in environment variable `name`: std::nullopt when it is unset
/// or empty, else a whole decimal token >= 1. Anything else (`0`, `-3`,
/// `4x`, ` 4`, `+4`, a value past INT_MAX) throws
/// rsd::Error{kInvalidArgument} naming the variable and the value.
[[nodiscard]] inline std::optional<int> env_count(const char* name) {
  const char* env = std::getenv(name);
  if (env == nullptr || env[0] == '\0') return std::nullopt;
  const std::string_view text{env};
  int value = 0;
  const auto [end, ec] = std::from_chars(text.data(), text.data() + text.size(), value);
  if (ec != std::errc{} || end != text.data() + text.size() || value < 1) {
    throw Error{ErrorCode::kInvalidArgument,
                std::string{name} + " expects an integer >= 1, got '" + env + "'"};
  }
  return value;
}

}  // namespace rsd

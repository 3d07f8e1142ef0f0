// Count-valued environment settings (DIGS_SHARDS, DIGS_SHARD_THREADS,
// DIGS_THREADS): one parser, so every variable accepts and rejects the same
// spellings.
#pragma once

#include <charconv>
#include <cstddef>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <stdexcept>
#include <string>

namespace digs {

/// The count held by environment variable `name`: 0 when it is unset or
/// empty, its value when it is a plain decimal count no larger than `max`.
/// Anything else — a sign, a space, trailing characters, a value above
/// `max` — throws std::invalid_argument naming the variable.
[[nodiscard]] inline std::size_t env_count(
    const char* name,
    std::size_t max = std::numeric_limits<std::size_t>::max()) {
  const char* env = std::getenv(name);
  if (env == nullptr || *env == '\0') return 0;
  const char* end = env + std::strlen(env);
  std::size_t value = 0;
  const auto [ptr, ec] = std::from_chars(env, end, value);
  if (ec != std::errc{} || ptr != end || value > max) {
    std::string message = std::string(name) + "='" + env + "' is not a count";
    if (max != std::numeric_limits<std::size_t>::max()) {
      message += " in [0, " + std::to_string(max) + "]";
    }
    throw std::invalid_argument(message);
  }
  return value;
}

}  // namespace digs

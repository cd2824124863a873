// Seed-sweep widths read from the environment.  The variables trim a sweep
// for expensive builds (scripts/check.sh's ASan legs), so a typo must fail
// the test instead of quietly running the default width.
#pragma once

#include <gtest/gtest.h>

#include <charconv>
#include <cstdint>
#include <cstdlib>
#include <cstring>

namespace eab {

/// The width the environment variable `name` asks for, or `fallback` when
/// it is unset.  Anything but a plain decimal in [1, 64] fails the calling
/// test with the variable's name and returns 0, so the sweep runs nothing.
inline std::uint64_t sweep_width(const char* name, std::uint64_t fallback) {
  const char* raw = std::getenv(name);
  if (raw == nullptr) return fallback;
  const char* end = raw + std::strlen(raw);
  std::uint64_t width = 0;
  const auto [stop, error] = std::from_chars(raw, end, width);
  if (error == std::errc() && stop == end && width >= 1 && width <= 64) {
    return width;
  }
  ADD_FAILURE() << name << "=\"" << raw << "\" is not a sweep width in [1, 64]";
  return 0;
}

}  // namespace eab

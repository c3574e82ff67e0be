#pragma once

#include <cstdint>
#include <optional>

#include "common/contracts.hpp"

namespace reconf::math {

/// Signed 128-bit integer used for overflow-free intermediates of 64-bit
/// rational arithmetic (GCC/Clang extension; this project targets those).
__extension__ typedef __int128 Int128;

/// Overflow-checked int64 addition; nullopt on overflow.
[[nodiscard]] inline std::optional<std::int64_t> checked_add(
    std::int64_t a, std::int64_t b) noexcept {
  std::int64_t out = 0;
  if (__builtin_add_overflow(a, b, &out)) return std::nullopt;
  return out;
}

/// Overflow-checked int64 multiplication; nullopt on overflow.
[[nodiscard]] inline std::optional<std::int64_t> checked_mul(
    std::int64_t a, std::int64_t b) noexcept {
  std::int64_t out = 0;
  if (__builtin_mul_overflow(a, b, &out)) return std::nullopt;
  return out;
}

/// Narrows Int128 to int64, asserting the value fits.
[[nodiscard]] inline std::int64_t narrow_i128(Int128 v) {
  RECONF_EXPECTS(v <= Int128{INT64_MAX} && v >= Int128{INT64_MIN});
  return static_cast<std::int64_t>(v);
}

}  // namespace reconf::math

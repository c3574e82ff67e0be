#pragma once

#include <cstdint>

namespace reconf::math {

/// Binomial proportion confidence interval (Wilson score). Used to annotate
/// acceptance ratios from finite samples.
struct Interval {
  double lo = 0.0;
  double hi = 0.0;
};

[[nodiscard]] Interval wilson_interval(std::uint64_t successes,
                                       std::uint64_t trials,
                                       double z = 1.96) noexcept;

}  // namespace reconf::math

#include "math/stats.hpp"

#include <algorithm>
#include <cmath>

namespace reconf::math {

Interval wilson_interval(std::uint64_t successes, std::uint64_t trials,
                         double z) noexcept {
  if (trials == 0) return {0.0, 1.0};
  const double n = static_cast<double>(trials);
  const double p = static_cast<double>(successes) / n;
  const double z2 = z * z;
  const double denom = 1.0 + z2 / n;
  const double center = (p + z2 / (2.0 * n)) / denom;
  const double half =
      (z * std::sqrt(p * (1.0 - p) / n + z2 / (4.0 * n * n))) / denom;
  return {std::max(0.0, center - half), std::min(1.0, center + half)};
}

}  // namespace reconf::math

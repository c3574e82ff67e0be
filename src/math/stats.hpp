#pragma once

#include <cstdint>
#include <limits>

namespace reconf::math {

/// Numerically stable running mean/variance (Welford).
class RunningStats {
 public:
  void add(double x) noexcept;

  [[nodiscard]] std::uint64_t count() const noexcept { return n_; }
  [[nodiscard]] double mean() const noexcept { return n_ == 0 ? 0.0 : mean_; }
  [[nodiscard]] double variance() const noexcept;
  [[nodiscard]] double min() const noexcept { return min_; }
  [[nodiscard]] double max() const noexcept { return max_; }

  /// Merges another accumulator (parallel reduction).
  void merge(const RunningStats& other) noexcept;

 private:
  std::uint64_t n_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = std::numeric_limits<double>::infinity();
  double max_ = -std::numeric_limits<double>::infinity();
};

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

#pragma once

// Order statistics shared by every measurement in the harness.

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace perfbench {

/// Nearest-rank percentile: the smallest sample with at least p% of the
/// samples at or below it (rank = ceil(p/100 * n), 1-based). p50 of
/// {1,2,3,4} is 2, p99 of 100 samples is the 99th smallest. Sorts a copy;
/// returns 0 for an empty input.
template <typename T>
[[nodiscard]] double percentile(std::vector<T> values, double p) {
  if (values.empty()) return 0.0;
  const double n = static_cast<double>(values.size());
  std::size_t rank = static_cast<std::size_t>(std::ceil(p / 100.0 * n));
  rank = std::clamp<std::size_t>(rank, 1, values.size());
  std::nth_element(values.begin(), values.begin() + (rank - 1), values.end());
  return static_cast<double>(values[rank - 1]);
}

/// Median as the mean of the two middle samples (even counts) — the
/// summary for a handful of repeated runs, where a nearest-rank median
/// would jump between two runs.
[[nodiscard]] inline double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

/// The network's share of one unloaded round trip: what is left of the
/// median round trip after the median in-process cost (framing, parse,
/// evaluation, format) of the same requests.
[[nodiscard]] inline double residual(double rtt_p50, double inproc_p50) {
  return rtt_p50 - inproc_p50;
}

}  // namespace perfbench

#pragma once

#include "common/types.hpp"
#include "task/taskset.hpp"

namespace reconf::fixtures {

/// The device used throughout Section 6's worked examples: A(H) = 10.
[[nodiscard]] Device paper_device_small();

/// Table 1 — accepted by DP, rejected by GN1 and GN2:
///   τ1 = (C=1.26, D=7, T=7, A=9), τ2 = (0.95, 5, 5, 6).
[[nodiscard]] TaskSet paper_table1();

/// Table 2 — accepted by GN1, rejected by DP and GN2:
///   τ1 = (4.50, 8, 8, 3), τ2 = (8.00, 9, 9, 5).
[[nodiscard]] TaskSet paper_table2();

/// Table 3 — accepted by GN2, rejected by DP and GN1:
///   τ1 = (2.10, 5, 5, 7), τ2 = (2.00, 7, 7, 7).
[[nodiscard]] TaskSet paper_table3();

}  // namespace reconf::fixtures

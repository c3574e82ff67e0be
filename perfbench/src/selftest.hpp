#pragma once

// Self-tests of the harness's own arithmetic: the percentile rank rule, the
// residual and self-time computations, and a stalled fake server that shows
// why latency is timed from the intended send time.

#include <string>
#include <vector>

namespace perfbench {

/// Returns one line per failed check (empty = all passed).
[[nodiscard]] std::vector<std::string> run_selftests();

}  // namespace perfbench

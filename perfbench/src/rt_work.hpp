#pragma once

// The runtime layer: generated churn and reconf-heavy scenarios replayed
// in-process through rt::run_scenario with hybrid prefetch and invariant
// checking on, and every admission-gate call re-timed from outside.

#include <cstdint>
#include <string>
#include <vector>

#include "rt/runtime.hpp"
#include "rt/scenario.hpp"
#include "task/taskset.hpp"

namespace perfbench {

/// `count` scenarios from `seed`, alternating churn and reconf-heavy.
[[nodiscard]] std::vector<reconf::rt::Scenario> make_rt_pool(std::uint64_t seed,
                                                             std::size_t count);

/// One admission-gate call as the runtime made it: the admitted set plus
/// the candidate (last), and whether it was admitted.
struct GateCall {
  reconf::TaskSet candidate;
  reconf::Device device;
  bool admitted = false;
};

/// Per-layer timing of the runtime over a pool, and its correctness.
struct RtLayers {
  std::vector<double> try_admit_ns;  ///< one AdmissionSession::try_admit each
  double replay_ns = 0.0;            ///< total untraced replay time
  double gate_share = 0.0;           ///< sum try_admit / replay time
  double dispatches_per_op = 0.0;
  double admissions_per_op = 0.0;
  double stall_hiding_ratio = 0.0;
  double costed_misses_per_op = 0.0;  ///< see the fault rule below
  std::uint64_t gated = 0;
  std::uint64_t admitted = 0;
  std::uint64_t skipped = 0;     ///< gate calls whose prefix did not re-admit
  std::uint64_t mismatches = 0;  ///< re-timed decision != the runtime's
  std::uint64_t digest = 0;      ///< FNV-1a of every summary_json()
  /// Empty when every replay was correct. Otherwise the first fault: an
  /// invariant violation; a summary_json() that differs between two
  /// replays of one scenario; or a deadline miss where the runtime promises
  /// none — only admitted tasks release jobs, and with a free
  /// reconfiguration model they all meet their deadlines. Under a costed
  /// model admission does not account for reconfiguration stalls, so misses
  /// there are counted (costed_misses_per_op), not failed.
  std::string fault;
  std::vector<GateCall> calls;   ///< every gate call, replay order
};

[[nodiscard]] RtLayers measure_rt_layers(
    const std::vector<reconf::rt::Scenario>& pool);

}  // namespace perfbench

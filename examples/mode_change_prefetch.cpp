// A mode change that only survives with configuration prefetch.
//
// A software radio hosts a 20-column FIR filter and a small control block.
// At t=2000 the link quality drops and the radio requests a mode change:
// the filter upgrades to a 60-column configuration with a tighter period.
// On this device (rho = 4 ticks/column) the new configuration takes
// 60 * 4 = 240 ticks to load, but the new mode only has D - C = 200 ticks
// of slack — a cold first job stalls through its own deadline, no matter
// what the schedulability analysis promised about execution.
//
// The admission-to-activation gap is the fix: the mode change is gated (and
// admitted) at t=2000 but first releases at t=2400, and a prefetch policy
// uses that window to push the new configuration through the
// reconfiguration port while the old mode is still draining. Same scenario,
// three runs:
//
//   none    the port sits idle; the first new-mode job pays the full load
//           and misses by 40 ticks
//   static  release falls inside the lookahead window; load hidden, no miss
//   hybrid  EDF over the loads picks it immediately; load hidden, no miss
//
// The same scenario is committed as
// tests/corpus/scenarios/mode-change-prefetch.scenario, where the replay
// corpus pins these three outcomes byte-for-byte.
//
//   $ ./mode_change_prefetch

#include <cstdio>

#include "rt/prefetch.hpp"
#include "rt/runtime.hpp"
#include "rt/scenario.hpp"

int main() {
  using namespace reconf;

  const rt::Scenario scenario = rt::parse_scenario(
      "{\"scenario\":\"mode-change-prefetch\",\"device\":100,"
      "\"horizon\":6000,\"rho\":4}\n"
      "{\"at\":0,\"event\":\"arrive\",\"name\":\"fir\","
      "\"c\":300,\"d\":900,\"t\":900,\"a\":20}\n"
      "{\"at\":0,\"event\":\"arrive\",\"name\":\"ctrl\","
      "\"c\":100,\"d\":500,\"t\":500,\"a\":10}\n"
      "{\"at\":2000,\"event\":\"mode-change\",\"name\":\"fir\","
      "\"c\":500,\"d\":700,\"t\":700,\"a\":60,\"start\":2400}\n");

  std::printf(
      "mode change at t=2000: fir 20 columns -> 60 columns, first release "
      "t=2400\n"
      "new-mode load 60*4 = 240 ticks vs slack D-C = 200 ticks\n\n");
  std::printf("%-8s %-7s %-7s %-12s %-12s %s\n", "policy", "misses",
              "stalled", "hidden", "prefetch", "first-job outcome");

  for (const rt::PrefetchKind policy :
       {rt::PrefetchKind::kNone, rt::PrefetchKind::kStatic,
        rt::PrefetchKind::kHybrid}) {
    rt::RuntimeConfig config;
    config.prefetch = policy;
    const rt::RuntimeResult r = rt::run_scenario(scenario, config);
    std::printf("%-8s %-7llu %-7lld %-12lld %llu hit / %llu started  %s\n",
                rt::to_string(policy),
                static_cast<unsigned long long>(r.deadline_misses),
                static_cast<long long>(r.stall_ticks),
                static_cast<long long>(r.hidden_ticks),
                static_cast<unsigned long long>(r.prefetch_hits),
                static_cast<unsigned long long>(r.prefetch_started),
                r.deadline_misses == 0 ? "meets its deadline"
                                       : "MISSES its deadline");
    if (!r.invariant_violations.empty()) {
      std::printf("  (invariant violations: %zu)\n",
                  r.invariant_violations.size());
      return 1;
    }
  }

  std::printf(
      "\nThe analysis admitted the transient union {fir-old, ctrl, fir-new}\n"
      "in every run — admission control cannot see configuration latency;\n"
      "hiding it is the prefetch port's job (Resano et al., PAPERS.md).\n");
  return 0;
}

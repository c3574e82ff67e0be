// bench_runtime — machine-readable baseline for the online reconfiguration
// runtime (src/rt/). Self-timed, no google-benchmark dependency.
//
//   bench_runtime [--out=PATH] [--merge=BENCH_perf.json] [--quick]
//
//   --out=PATH    write the standalone runtime report JSON; "-" (default)
//                 prints to stdout only
//   --merge=PATH  splice the report into an existing BENCH_perf.json as its
//                 top-level "runtime" key (replacing any previous one) —
//                 how the committed baseline at the repo root is refreshed:
//                   ./build/bench_runtime --merge=BENCH_perf.json
//   --quick       CI smoke sizing: fewer seeds per family
//
// Measurements, per (scenario family x prefetch policy) over a fixed seed
// set (deterministic — the numbers move only when the runtime, generator or
// analyzers change):
//   * admit_rate        gate acceptances / gate attempts
//   * admitted_util     mean peak admitted system utilization, normalized
//                       by device area capacity (sigma A*C/T / W)
//   * miss_rate         deadline misses / releases (zero-cost families must
//                       hold this at exactly 0 — conformance, not tuning)
//   * stall_hiding      hidden / (hidden + stalled) load ticks — the
//                       prefetch acceptance bar: hybrid >= 0.5 on the
//                       reconf-heavy family
//   * admission_ns      mean wall nanoseconds per admission-gate attempt
//   * run_us            mean wall microseconds per full scenario replay
//
// The "fault" section benches the recovery path (src/fault/ + the runtime's
// recovery policies): reconf-heavy scenarios replayed under a generated
// fault plan once per overrun action, against the fault-free replay of the
// same scenarios. `overhead` is run_us / fault-free run_us — the price of
// injection + recovery; the fault-free path itself carries no injector in
// the loop (config.faults == nullptr short-circuits), which the plain cells
// above keep honest.
//
// The zero-cost families (steady, churn) run under the no-prefetch policy
// only — with nothing to load, every policy is identical on them. The
// reconf-heavy family runs under all three policies; that comparison is
// the prefetch story.

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "common/flags.hpp"
#include "common/report_merge.hpp"
#include "common/stopwatch.hpp"
#include "fault/plan.hpp"
#include "rt/runtime.hpp"
#include "rt/scenario.hpp"

namespace {

using namespace reconf;

struct Cell {
  rt::ScenarioFamily family = rt::ScenarioFamily::kSteady;
  rt::PrefetchKind policy = rt::PrefetchKind::kNone;
  int scenarios = 0;
  std::uint64_t attempts = 0;
  std::uint64_t admitted = 0;
  std::uint64_t releases = 0;
  std::uint64_t misses = 0;
  Ticks stalled = 0;
  Ticks hidden = 0;
  double util_sum = 0.0;       ///< sigma of per-scenario peak util / W
  double admission_ns = 0.0;   ///< sigma wall ns inside the gate
  double run_seconds = 0.0;    ///< sigma wall seconds per replay

  [[nodiscard]] double admit_rate() const {
    return attempts == 0 ? 0.0
                         : static_cast<double>(admitted) /
                               static_cast<double>(attempts);
  }
  [[nodiscard]] double admitted_util() const {
    return scenarios == 0 ? 0.0 : util_sum / scenarios;
  }
  [[nodiscard]] double miss_rate() const {
    return releases == 0 ? 0.0
                         : static_cast<double>(misses) /
                               static_cast<double>(releases);
  }
  [[nodiscard]] double stall_hiding() const {
    const double total =
        static_cast<double>(hidden) + static_cast<double>(stalled);
    return total == 0.0 ? 0.0 : static_cast<double>(hidden) / total;
  }
};

Cell measure(rt::ScenarioFamily family, rt::PrefetchKind policy, int seeds,
             int arrivals) {
  Cell cell;
  cell.family = family;
  cell.policy = policy;
  for (int seed = 0; seed < seeds; ++seed) {
    rt::ScenarioGenOptions gen;
    gen.family = family;
    gen.seed = static_cast<std::uint64_t>(seed);
    gen.arrivals = arrivals;
    const rt::Scenario scenario = rt::generate_scenario(gen);

    rt::RuntimeConfig config;
    config.prefetch = policy;
    config.record_trace = false;
    config.check_invariants = false;

    Stopwatch watch;
    const rt::RuntimeResult r = rt::run_scenario(scenario, config);
    cell.run_seconds += watch.seconds();

    ++cell.scenarios;
    cell.attempts += r.admitted + r.rejected;
    cell.admitted += r.admitted;
    cell.releases += r.releases;
    cell.misses += r.deadline_misses;
    cell.stalled += r.stall_ticks;
    cell.hidden += r.hidden_ticks;
    cell.util_sum += r.peak_admitted_system_util /
                     static_cast<double>(scenario.device.width);
    cell.admission_ns += static_cast<double>(r.admission_nanos);
  }
  return cell;
}

std::string cell_json(const Cell& c) {
  char buf[512];
  std::snprintf(
      buf, sizeof(buf),
      "{\"family\": \"%s\", \"policy\": \"%s\", \"scenarios\": %d, "
      "\"admit_rate\": %.3f, \"admitted_util\": %.3f, \"miss_rate\": %.4f, "
      "\"stall_hiding\": %.3f, \"admission_ns\": %.0f, \"run_us\": %.0f}",
      rt::to_string(c.family), rt::to_string(c.policy), c.scenarios,
      c.admit_rate(), c.admitted_util(), c.miss_rate(), c.stall_hiding(),
      c.attempts == 0 ? 0.0 : c.admission_ns / static_cast<double>(c.attempts),
      c.scenarios == 0 ? 0.0 : c.run_seconds * 1e6 / c.scenarios);
  return buf;
}

std::string report_json(const std::vector<Cell>& cells, int seeds) {
  std::string out = "{\n    \"schema\": \"reconf-bench-runtime/1\",\n";
  out += "    \"seeds_per_family\": " + std::to_string(seeds) + ",\n";
  out += "    \"cells\": [\n";
  for (std::size_t i = 0; i < cells.size(); ++i) {
    out += "      " + cell_json(cells[i]);
    if (i + 1 < cells.size()) out += ",";
    out += "\n";
  }
  out += "    ]\n  }";
  return out;
}

/// The recovery-path cell: reconf-heavy scenarios replayed under a generated
/// fault plan with one fixed overrun action. The fault-free replay of the
/// same scenarios (same prefetch policy) is the overhead denominator.
struct FaultCell {
  rt::OverrunAction action = rt::OverrunAction::kAbort;
  int scenarios = 0;
  std::uint64_t overruns = 0;
  std::uint64_t port_failures = 0;
  std::uint64_t retries = 0;
  std::uint64_t fabric = 0;
  std::uint64_t sheds = 0;
  std::uint64_t post_shed_misses = 0;
  std::uint64_t misses = 0;
  std::uint64_t releases = 0;
  double run_seconds = 0.0;
  double baseline_seconds = 0.0;

  [[nodiscard]] double miss_rate() const {
    return releases == 0 ? 0.0
                         : static_cast<double>(misses) /
                               static_cast<double>(releases);
  }
  [[nodiscard]] double overhead() const {
    return baseline_seconds == 0.0 ? 0.0 : run_seconds / baseline_seconds;
  }
};

std::vector<std::string> arrival_names(const rt::Scenario& scenario) {
  std::vector<std::string> names;
  for (const rt::ScenarioEvent& e : scenario.events) {
    if (e.kind != rt::EventKind::kArrive) continue;
    bool known = false;
    for (const std::string& n : names) known = known || n == e.name;
    if (!known) names.push_back(e.name);
  }
  return names;
}

FaultCell measure_fault(rt::OverrunAction action, int seeds, int arrivals) {
  FaultCell cell;
  cell.action = action;
  for (int seed = 0; seed < seeds; ++seed) {
    rt::ScenarioGenOptions gen;
    gen.family = rt::ScenarioFamily::kReconfHeavy;
    gen.seed = static_cast<std::uint64_t>(seed);
    gen.arrivals = arrivals;
    const rt::Scenario scenario = rt::generate_scenario(gen);

    fault::FaultPlanGenOptions pgen;
    pgen.horizon = scenario.horizon;
    pgen.names = arrival_names(scenario);
    pgen.faults = 8;
    pgen.seed = static_cast<std::uint64_t>(seed);
    const fault::FaultPlan plan = fault::generate_fault_plan(pgen);

    rt::RuntimeConfig config;
    config.prefetch = rt::PrefetchKind::kHybrid;
    config.record_trace = false;
    config.check_invariants = false;

    Stopwatch base_watch;
    const rt::RuntimeResult base = rt::run_scenario(scenario, config);
    cell.baseline_seconds += base_watch.seconds();
    (void)base;

    config.faults = &plan;
    config.recovery.overrun = action;

    Stopwatch watch;
    const rt::RuntimeResult r = rt::run_scenario(scenario, config);
    cell.run_seconds += watch.seconds();

    ++cell.scenarios;
    cell.overruns += r.faults.wcet_overruns;
    cell.port_failures += r.faults.port_failures;
    cell.retries += r.faults.load_retries;
    cell.fabric += r.faults.fabric_faults;
    cell.sheds += r.faults.sheds;
    cell.post_shed_misses += r.faults.post_shed_misses;
    cell.misses += r.deadline_misses;
    cell.releases += r.releases;
  }
  return cell;
}

std::string fault_cell_json(const FaultCell& c) {
  char buf[512];
  std::snprintf(
      buf, sizeof(buf),
      "{\"action\": \"%s\", \"scenarios\": %d, \"overruns\": %llu, "
      "\"port_failures\": %llu, \"retries\": %llu, \"fabric\": %llu, "
      "\"sheds\": %llu, \"post_shed_misses\": %llu, \"miss_rate\": %.4f, "
      "\"overhead\": %.3f, \"run_us\": %.0f}",
      rt::to_string(c.action), c.scenarios,
      static_cast<unsigned long long>(c.overruns),
      static_cast<unsigned long long>(c.port_failures),
      static_cast<unsigned long long>(c.retries),
      static_cast<unsigned long long>(c.fabric),
      static_cast<unsigned long long>(c.sheds),
      static_cast<unsigned long long>(c.post_shed_misses), c.miss_rate(),
      c.overhead(),
      c.scenarios == 0 ? 0.0 : c.run_seconds * 1e6 / c.scenarios);
  return buf;
}

std::string fault_report_json(const std::vector<FaultCell>& cells, int seeds) {
  std::string out = "{\n    \"schema\": \"reconf-bench-fault/1\",\n";
  out += "    \"seeds_per_action\": " + std::to_string(seeds) + ",\n";
  out += "    \"cells\": [\n";
  for (std::size_t i = 0; i < cells.size(); ++i) {
    out += "      " + fault_cell_json(cells[i]);
    if (i + 1 < cells.size()) out += ",";
    out += "\n";
  }
  out += "    ]\n  }";
  return out;
}

/// Splices `section_json` into `path` as the top-level `key` via the shared
/// report-merge helper, reporting failures on stderr.
bool merge_into(const std::string& path, const std::string& key_name,
                const std::string& section_json) {
  std::string error;
  if (!merge_report_section(path, key_name, section_json, &error)) {
    std::fprintf(stderr, "%s\n", error.c_str());
    return false;
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  const std::vector<std::string> args(argv + 1, argv + argc);
  const bool quick = has_flag(args, "quick");
  const int seeds = quick ? 5 : 25;

  std::vector<Cell> cells;
  for (const rt::ScenarioFamily family :
       {rt::ScenarioFamily::kSteady, rt::ScenarioFamily::kChurn}) {
    cells.push_back(measure(family, rt::PrefetchKind::kNone, seeds,
                            /*arrivals=*/10));
  }
  // The prefetch regime: sigma-areas exceed the fabric at 8 fat arrivals,
  // so every release risks a cold configuration while some columns stay
  // free to hide loads in (see runtime_test for the saturation cliff).
  for (const rt::PrefetchKind policy :
       {rt::PrefetchKind::kNone, rt::PrefetchKind::kStatic,
        rt::PrefetchKind::kHybrid}) {
    cells.push_back(measure(rt::ScenarioFamily::kReconfHeavy, policy, seeds,
                            /*arrivals=*/8));
  }

  // The recovery-path cells: one per overrun action, all on the
  // reconf-heavy family under hybrid prefetch with a generated 8-event
  // plan per scenario. Deliberately separate from `cells` so the
  // fault-free numbers above never route through the injector.
  std::vector<FaultCell> fault_cells;
  for (const rt::OverrunAction action :
       {rt::OverrunAction::kAbort, rt::OverrunAction::kSkipNext,
        rt::OverrunAction::kDegrade}) {
    fault_cells.push_back(measure_fault(action, seeds, /*arrivals=*/8));
  }

  std::printf(
      "family        policy   admit  util   miss     hiding  gate-ns  "
      "run-us\n");
  for (const Cell& c : cells) {
    std::printf("%-13s %-8s %.3f  %.3f  %.4f   %.3f  %7.0f  %6.0f\n",
                rt::to_string(c.family), rt::to_string(c.policy),
                c.admit_rate(), c.admitted_util(), c.miss_rate(),
                c.stall_hiding(),
                c.attempts == 0
                    ? 0.0
                    : c.admission_ns / static_cast<double>(c.attempts),
                c.scenarios == 0 ? 0.0 : c.run_seconds * 1e6 / c.scenarios);
  }
  std::printf(
      "\nfault action  overruns ports  retries  sheds  miss     overhead  "
      "run-us\n");
  for (const FaultCell& c : fault_cells) {
    std::printf("%-13s %8llu %5llu %8llu %6llu  %.4f   %.3fx  %7.0f\n",
                rt::to_string(c.action),
                static_cast<unsigned long long>(c.overruns),
                static_cast<unsigned long long>(c.port_failures),
                static_cast<unsigned long long>(c.retries),
                static_cast<unsigned long long>(c.sheds), c.miss_rate(),
                c.overhead(),
                c.scenarios == 0 ? 0.0 : c.run_seconds * 1e6 / c.scenarios);
  }

  const std::string json = report_json(cells, seeds);
  const std::string fault_json = fault_report_json(fault_cells, seeds);
  const std::string out = flag_str(args, "out").value_or("");
  if (out.empty() || out == "-") {
    std::printf("\n\"runtime\": %s\n", json.c_str());
    std::printf("\n\"fault\": %s\n", fault_json.c_str());
  } else {
    std::ofstream f(out);
    if (!f) {
      std::fprintf(stderr, "cannot write %s\n", out.c_str());
      return 1;
    }
    f << "{\n  \"runtime\": " << json << ",\n  \"fault\": " << fault_json
      << "\n}\n";
  }

  const std::string merge = flag_str(args, "merge").value_or("");
  if (!merge.empty()) {
    if (!merge_into(merge, "runtime", json)) return 1;
    if (!merge_into(merge, "fault", fault_json)) return 1;
    std::printf("merged runtime + fault sections into %s\n", merge.c_str());
  }

  // The acceptance bar rides along in exit status so CI can gate on it:
  // hybrid must hide >= 50% of load time on the reconf-heavy family and
  // the zero-cost families must be missless.
  for (const Cell& c : cells) {
    const bool zero_cost = c.family != rt::ScenarioFamily::kReconfHeavy;
    if (zero_cost && c.misses != 0) {
      std::fprintf(stderr, "FAIL: %s has misses under zero cost\n",
                   rt::to_string(c.family));
      return 1;
    }
    if (c.family == rt::ScenarioFamily::kReconfHeavy &&
        c.policy == rt::PrefetchKind::kHybrid && c.stall_hiding() < 0.5) {
      std::fprintf(stderr, "FAIL: hybrid stall hiding %.3f < 0.5\n",
                   c.stall_hiding());
      return 1;
    }
  }
  // Recovery bars: the generated plans must actually bite, and graceful
  // degradation must protect the survivors it kept (the shed contract).
  for (const FaultCell& c : fault_cells) {
    if (c.overruns + c.port_failures + c.fabric == 0) {
      std::fprintf(stderr, "FAIL: fault cell %s injected nothing\n",
                   rt::to_string(c.action));
      return 1;
    }
    if (c.action == rt::OverrunAction::kDegrade && c.post_shed_misses != 0) {
      std::fprintf(stderr,
                   "FAIL: degrade left %llu post-shed misses\n",
                   static_cast<unsigned long long>(c.post_shed_misses));
      return 1;
    }
  }
  return 0;
}

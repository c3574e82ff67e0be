// Quickstart: define a hardware taskset, run the paper's three bound tests
// (DP / GN1 / GN2) through the AnalysisEngine, then confirm the verdicts
// against event-driven simulation of both EDF variants.
//
//   $ ./quickstart

#include <cstdio>
#include <iostream>

#include "analysis/engine.hpp"
#include "sim/engine.hpp"
#include "task/io.hpp"
#include "task/task.hpp"
#include "task/taskset.hpp"

namespace {

void show_outcome(const reconf::analysis::AnalyzerOutcome& o) {
  const reconf::analysis::TestReport& r = o.report;
  std::printf("  %-4s : %s", o.id.c_str(),
              r.accepted() ? "SCHEDULABLE" : "inconclusive");
  if (!r.accepted() && r.first_failing_task) {
    std::printf("  (condition fails at k=%zu", *r.first_failing_task + 1);
    const auto& d = r.per_task[*r.first_failing_task];
    std::printf(": lhs=%.3f rhs=%.3f)", d.lhs, d.rhs);
  }
  if (!r.note.empty()) std::printf("  [%s]", r.note.c_str());
  std::printf("  (%.1f us)\n", o.seconds * 1e6);
}

void show_sim(const char* label, const reconf::sim::SimResult& r,
              reconf::Device dev) {
  std::printf(
      "  %-8s: %-12s  jobs=%llu/%llu  preemptions=%llu  occupancy=%.1f%%\n",
      label, r.schedulable ? "no misses" : "DEADLINE MISS",
      static_cast<unsigned long long>(r.jobs_completed),
      static_cast<unsigned long long>(r.jobs_released),
      static_cast<unsigned long long>(r.preemptions),
      100.0 * r.average_occupancy(dev.width));
}

}  // namespace

int main() {
  using namespace reconf;

  // The paper's Table 3 taskset on a 10-column device: rejected by DP and
  // GN1 but proven schedulable by GN2.
  const TaskSet ts({
      make_task(2.10, 5, 5, 7, "filter"),
      make_task(2.00, 7, 7, 7, "codec"),
  });
  const Device fpga{10};

  std::cout << "taskset (paper Table 3):\n"
            << io::format_table(ts, fpga) << "\n";

  // The engine resolves the default request — the paper's Section 6 trio —
  // against the analyzer registry and runs every test (no early exit, so
  // the per-test diagnostics below are complete).
  std::cout << "schedulability bound tests (AnalysisEngine, "
            << "tests=dp,gn1,gn2):\n";
  const analysis::AnalysisEngine engine{analysis::AnalysisRequest{}};
  const auto report = engine.run(ts, fpga);
  for (const auto& outcome : report.outcomes) show_outcome(outcome);

  std::printf("  ANY  : %s (via %s)\n\n",
              report.accepted() ? "SCHEDULABLE" : "inconclusive",
              report.accepted_by().c_str());

  std::cout << "simulation over one hyperperiod (synchronous release):\n";
  sim::SimConfig cfg;
  cfg.record_trace = true;
  cfg.check_invariants = true;

  cfg.scheduler = sim::SchedulerKind::kEdfNf;
  const auto nf = sim::simulate(ts, fpga, cfg);
  show_sim("EDF-NF", nf, fpga);

  cfg.scheduler = sim::SchedulerKind::kEdfFkF;
  const auto fkf = sim::simulate(ts, fpga, cfg);
  show_sim("EDF-FkF", fkf, fpga);

  std::cout << "\nEDF-NF Gantt (one hyperperiod, " << nf.horizon
            << " ticks):\n"
            << nf.trace.render_gantt(ts, nf.horizon) << "\n";

  if (!nf.invariant_violations.empty()) {
    std::cout << "invariant violations: " << nf.invariant_violations.front()
              << "\n";
    return 1;
  }
  std::cout << "work-conservation invariants (Lemmas 1-2): OK over "
            << nf.dispatches << " dispatches\n";
  return 0;
}

// A software-defined-radio style pipeline of hardware tasks — the kind of
// periodic streaming workload PRTR FPGAs host: acquisition, channel filter,
// FFT, demodulator, Viterbi decoder and a housekeeping telemetry block, each
// with its own period, WCET and column footprint.
//
// Demonstrates:
//  * schedulability verdicts and per-task diagnostics (which k fails),
//  * the paper's interference accounting (Fig. 2): per-task time work and
//    system work extracted from the simulation trace,
//  * the EDF-NF vs EDF-FkF behavioural gap on a realistic taskset,
//  * reconfiguration-overhead sensitivity (Section 1 / future work).
//
//   $ ./sdr_pipeline

#include <cstdio>
#include <iostream>

#include "analysis/dp.hpp"
#include "analysis/engine.hpp"
#include "analysis/gn1.hpp"
#include "analysis/gn2.hpp"
#include "analysis/overhead.hpp"
#include "sim/engine.hpp"
#include "task/io.hpp"
#include "task/task.hpp"
#include "task/taskset.hpp"

int main() {
  using namespace reconf;

  // Periods/WCETs in milliseconds (1 unit = 1 ms), areas in columns of a
  // 100-column device.
  const TaskSet ts({
      make_task(1.10, 4, 4, 22, "acquire"),   // antenna burst acquisition
      make_task(1.80, 6, 6, 25, "chanfilt"),  // polyphase channel filter
      make_task(2.20, 8, 8, 30, "fft"),       // 2k FFT
      make_task(1.50, 8, 8, 18, "demod"),     // QAM demodulator
      make_task(3.00, 12, 12, 35, "viterbi"), // convolutional decoder
      make_task(1.00, 16, 16, 10, "telemetry"),
  });
  const Device fpga{100};

  std::cout << "SDR pipeline:\n" << io::format_table(ts, fpga) << "\n";

  std::cout << "bound tests:\n";
  for (const auto& report :
       {analysis::dp_test(ts, fpga), analysis::gn1_test(ts, fpga),
        analysis::gn2_test(ts, fpga)}) {
    std::printf("  %-4s: %s\n", report.test_name.c_str(),
                report.accepted() ? "schedulable" : "inconclusive");
    for (const auto& d : report.per_task) {
      std::printf("        k=%zu (%s): lhs=%7.3f  rhs=%7.3f  %s\n",
                  d.task_index + 1, ts[d.task_index].name.c_str(), d.lhs,
                  d.rhs, d.pass ? "ok" : "FAIL");
    }
  }

  // Simulate with trace to extract the paper's work quantities.
  sim::SimConfig cfg;
  cfg.record_trace = true;
  cfg.horizon_periods = 100;
  const auto nf = sim::simulate(ts, fpga, cfg);
  cfg.scheduler = sim::SchedulerKind::kEdfFkF;
  const auto fkf = sim::simulate(ts, fpga, cfg);

  std::printf("\nsimulation: EDF-NF %s, EDF-FkF %s (horizon %lld ticks)\n",
              nf.schedulable ? "meets all deadlines" : "MISSES",
              fkf.schedulable ? "meets all deadlines" : "MISSES",
              static_cast<long long>(nf.horizon));

  std::printf("\nper-task work over the horizon (paper Section 2):\n");
  std::printf("  %-10s %14s %14s %10s\n", "task", "time work W^T",
              "system work W^S", "share");
  for (std::size_t i = 0; i < ts.size(); ++i) {
    const Ticks wt = nf.trace.time_work(i);
    const std::int64_t ws = nf.trace.system_work(i);
    std::printf("  %-10s %14lld %14lld %9.1f%%\n", ts[i].name.c_str(),
                static_cast<long long>(wt), static_cast<long long>(ws),
                100.0 * static_cast<double>(ws) /
                    (static_cast<double>(nf.horizon) * fpga.width));
  }
  std::printf("  device occupancy: %.1f%% (EDF-NF), %.1f%% (EDF-FkF)\n",
              100.0 * nf.average_occupancy(fpga.width),
              100.0 * fkf.average_occupancy(fpga.width));

  std::cout << "\nEDF-NF Gantt (first 40 ms):\n";
  sim::SimConfig zoom = cfg;
  zoom.scheduler = sim::SchedulerKind::kEdfNf;
  zoom.horizon = 4000;
  const auto zoomed = sim::simulate(ts, fpga, zoom);
  std::cout << zoomed.trace.render_gantt(ts, zoom.horizon) << "\n";

  // Reconfiguration-overhead sensitivity: sweep ρ and find the break point.
  std::printf("reconfiguration overhead sweep (rho = cost per column):\n");
  std::printf("  %-12s %-14s %-14s\n", "rho (ms/col)",
              "analysis (ANY)", "simulation NF");
  const analysis::AnalysisEngine any_engine{analysis::fast_any_request()};
  for (const double rho_ms : {0.0, 0.002, 0.005, 0.01, 0.02, 0.05}) {
    const Ticks rho = ticks_from_units(rho_ms);
    analysis::OverheadModel model;
    model.cost.per_column = rho;
    const TaskSet inflated = analysis::inflate_for_overhead(ts, model);
    const bool analysis_ok = any_engine.decide(inflated, fpga).accepted();

    sim::SimConfig ocfg;
    ocfg.reconf.per_column = rho;
    ocfg.horizon_periods = 100;
    const bool sim_ok = sim::simulate(ts, fpga, ocfg).schedulable;
    std::printf("  %-12.3f %-14s %-14s\n", rho_ms,
                analysis_ok ? "schedulable" : "inconclusive",
                sim_ok ? "no misses" : "MISSES");
  }
  return 0;
}

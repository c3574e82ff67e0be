// Design-space exploration: how many FPGA columns does a given hardware
// taskset need? For each admission criterion (DP, GN1, GN2, composite,
// partitioned baseline, simulation) find the minimal device width that
// passes, via linear scan over widths (the tests are not all monotone in
// width in theory, so the scan reports the smallest passing width and any
// non-monotonicity it encounters).
//
// This is the "dimension your device" workflow a downstream user of the
// paper's analysis actually runs.
//
//   $ ./design_explorer [seed]

#include <cstdio>
#include <cstdlib>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "analysis/dp.hpp"
#include "analysis/engine.hpp"
#include "analysis/gn1.hpp"
#include "analysis/gn2.hpp"
#include "gen/generator.hpp"
#include "partition/partitioned.hpp"
#include "sim/engine.hpp"
#include "task/io.hpp"

namespace {

using Accept = std::function<bool(const reconf::TaskSet&, reconf::Device)>;

struct Criterion {
  std::string name;
  Accept accept;
};

std::optional<reconf::Area> minimal_width(const reconf::TaskSet& ts,
                                          const Criterion& c,
                                          reconf::Area max_width) {
  for (reconf::Area w = ts.max_area(); w <= max_width; ++w) {
    if (c.accept(ts, reconf::Device{w})) return w;
  }
  return std::nullopt;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace reconf;

  const std::uint64_t seed =
      argc > 1 ? std::strtoull(argv[1], nullptr, 10) : 42;

  // A moderately loaded taskset: 8 tasks, U_S targeted at 40 area-units.
  gen::GenRequest req;
  req.profile = gen::GenProfile::unconstrained(8);
  req.profile.area_max = 60;
  req.target_system_util = 40.0;
  req.seed = seed;
  const auto ts = gen::generate_with_retries(req);
  if (!ts) {
    std::fprintf(stderr, "generation failed\n");
    return 1;
  }

  std::printf("taskset:\n%s\n", io::format_table(*ts, Device{100}).c_str());

  const std::vector<Criterion> criteria = {
      {"DP",
       [](const TaskSet& t, Device d) {
         return analysis::dp_test(t, d).accepted();
       }},
      {"GN1",
       [](const TaskSet& t, Device d) {
         return analysis::gn1_test(t, d).accepted();
       }},
      {"GN2",
       [](const TaskSet& t, Device d) {
         return analysis::gn2_test(t, d).accepted();
       }},
      {"ANY",
       [engine = std::make_shared<analysis::AnalysisEngine>(
            analysis::fast_any_request())](const TaskSet& t, Device d) {
         return engine->decide(t, d).accepted();
       }},
      {"PART",
       [](const TaskSet& t, Device d) {
         return partition::partitioned_schedulable(t, d);
       }},
      {"SIM-NF",
       [](const TaskSet& t, Device d) {
         sim::SimConfig cfg;
         cfg.horizon_periods = 100;
         return sim::simulate(t, d, cfg).schedulable;
       }},
  };

  constexpr Area kMaxWidth = 400;
  std::printf("minimal device width A(H) required by each criterion "
              "(scan up to %d):\n", kMaxWidth);
  std::printf("  lower bounds: A_max = %d, ceil(U_S) = %d\n", ts->max_area(),
              static_cast<int>(ts->system_utilization()) + 1);

  Area any_width = 0;
  Area sim_width = 0;
  for (const Criterion& c : criteria) {
    const auto w = minimal_width(*ts, c, kMaxWidth);
    if (w) {
      std::printf("  %-7s: %4d columns\n", c.name.c_str(), *w);
      if (c.name == "ANY") any_width = *w;
      if (c.name == "SIM-NF") sim_width = *w;
    } else {
      std::printf("  %-7s: > %d columns\n", c.name.c_str(), kMaxWidth);
    }
  }

  if (any_width > 0 && sim_width > 0) {
    std::printf(
        "\nanalysis-vs-simulation sizing gap: the composite bound needs %d "
        "columns, simulation first succeeds at %d (pessimism ratio %.2f)\n",
        any_width, sim_width,
        static_cast<double>(any_width) / static_cast<double>(sim_width));
  }
  return 0;
}

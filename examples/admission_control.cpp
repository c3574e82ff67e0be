// Online admission control — the embedded-systems scenario the paper's
// introduction motivates: hardware tasks (accelerator requests) arrive one
// at a time, and the runtime must decide instantly whether the new task can
// be admitted without endangering deadlines already guaranteed.
//
// This example drives the real serving subsystem (src/svc/): an
// svc::AdmissionSession holding the admitted set, backed by an
// svc::ShardCache keyed by the canonical taskset hash mixed with the
// session engine's fingerprint. The admission criterion is the paper's
// Section 6 recommendation — the default AnalysisRequest resolves the
// dp/gn1/gn2 analyzers from the registry and admits if ANY accepts the
// extended set.
// Every admitted configuration is validated by simulation, and a second
// pass replays the identical stream to show the cache serving it for free.
//
//   $ ./admission_control [seed]

#include <cstdio>
#include <cstdlib>
#include <vector>

#include "gen/generator.hpp"
#include "sim/engine.hpp"
#include "svc/session.hpp"
#include "svc/shard_cache.hpp"
#include "task/taskset.hpp"

int main(int argc, char** argv) {
  using namespace reconf;

  const std::uint64_t seed =
      argc > 1 ? std::strtoull(argv[1], nullptr, 10) : 2007;
  const Device fpga{100};

  // A stream of 40 candidate tasks drawn from the paper's unconstrained
  // distribution (area 1..100 columns, period 5..20, u in (0,1)).
  gen::GenRequest req;
  req.profile = gen::GenProfile::unconstrained(40);
  req.seed = seed;
  const auto stream = gen::generate(req);
  if (!stream) {
    std::fprintf(stderr, "generation failed\n");
    return 1;
  }

  svc::ShardCache cache(4096);
  svc::AdmissionSession session(fpga, &cache);

  std::uint64_t dp_only = 0;
  std::uint64_t gn1_only = 0;
  std::uint64_t gn2_only = 0;

  std::printf("%-5s %-28s %9s %9s  %s\n", "#", "task (C,D,T,A)", "U_S(cur)",
              "U_S(new)", "decision");
  for (std::size_t i = 0; i < stream->size(); ++i) {
    const Task& t = (*stream)[i];
    const double us_before = session.admitted_set().system_utilization();

    const auto decision = session.try_admit(t);

    char desc[64];
    std::snprintf(desc, sizeof desc, "(%.2f, %lld, %lld, %d)",
                  units_from_ticks(t.wcet),
                  static_cast<long long>(units_from_ticks(t.deadline)),
                  static_cast<long long>(units_from_ticks(t.period)), t.area);
    // U_S(new) is the candidate set's utilization either way: on rejection
    // the admitted set is unchanged, but the column shows how far over
    // capacity the trial was.
    const TaskSet now = session.admitted_set();
    const double us_trial = decision.admitted
                                ? now.system_utilization()
                                : us_before + t.system_utilization();
    std::printf("%-5zu %-28s %9.2f %9.2f  ", i + 1, desc, us_before,
                us_trial);

    if (decision.admitted) {
      std::printf("ADMIT via %s\n", decision.accepted_by.c_str());
      // Track which tests are pulling their weight (the full per-analyzer
      // report is available because this verdict was freshly analyzed and
      // the session's default request runs without early exit).
      if (decision.report) {
        const auto accepted_by_id = [&](const char* id) {
          const auto* r = decision.report->report_for(id);
          return r != nullptr && r->accepted();
        };
        const bool dp = accepted_by_id("dp");
        const bool gn1 = accepted_by_id("gn1");
        const bool gn2 = accepted_by_id("gn2");
        dp_only += dp && !gn1 && !gn2;
        gn1_only += gn1 && !dp && !gn2;
        gn2_only += gn2 && !dp && !gn1;
      }

      // Safety net: every admitted configuration must simulate cleanly.
      const auto run = sim::simulate(now, fpga);
      if (!run.schedulable) {
        std::fprintf(stderr, "BUG: admitted set missed a deadline in sim\n");
        return 1;
      }
    } else {
      std::printf("reject\n");
    }
  }

  const TaskSet final_set = session.admitted_set();
  const auto& stats = session.stats();
  std::printf("\nadmitted %llu of %zu tasks (rejected %llu)\n",
              static_cast<unsigned long long>(stats.admitted), stream->size(),
              static_cast<unsigned long long>(stats.rejected));
  std::printf("final utilization: U_S = %.2f of A(H) = %d  (U_T = %.2f)\n",
              final_set.system_utilization(), fpga.width,
              final_set.time_utilization());
  std::printf("admissions uniquely enabled by: DP %llu, GN1 %llu, GN2 %llu\n",
              static_cast<unsigned long long>(dp_only),
              static_cast<unsigned long long>(gn1_only),
              static_cast<unsigned long long>(gn2_only));

  // Replay: a second controller sharing the cache sees the same stream.
  // Every candidate set hashes to an already-cached verdict, so the whole
  // admission sequence is decided without running a single test.
  svc::AdmissionSession replay(fpga, &cache);
  std::uint64_t replay_hits = 0;
  for (const Task& t : *stream) {
    replay_hits += replay.try_admit(t).cache_hit ? 1 : 0;
  }
  const auto cs = cache.stats();
  std::printf("\nreplay of the same stream: %llu/%zu decisions served from "
              "cache (admitted %llu, identical to pass 1: %s)\n",
              static_cast<unsigned long long>(replay_hits), stream->size(),
              static_cast<unsigned long long>(replay.stats().admitted),
              replay.stats().admitted == stats.admitted ? "yes" : "NO — BUG");
  std::printf("cache: %llu hits / %llu lookups (%.0f%%), %zu entries\n",
              static_cast<unsigned long long>(cs.hits),
              static_cast<unsigned long long>(cs.hits + cs.misses),
              100.0 * cs.hit_rate(), cache.size());
  return replay.stats().admitted == stats.admitted ? 0 : 1;
}

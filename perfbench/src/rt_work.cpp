#include "rt_work.hpp"

#include "analysis/engine.hpp"
#include "gen.hpp"
#include "proc.hpp"
#include "svc/session.hpp"

namespace perfbench {

namespace rt = reconf::rt;

namespace {

rt::RuntimeConfig rt_config() {
  rt::RuntimeConfig config;
  config.prefetch = rt::PrefetchKind::kHybrid;
  config.check_invariants = true;
  config.record_trace = false;
  return config;
}

std::string rt_fault(const rt::Scenario& scenario, const rt::RuntimeResult& result) {
  if (!result.invariant_violations.empty()) {
    return result.scenario + ": invariant violation: " +
           result.invariant_violations.front();
  }
  if (result.deadline_misses != 0 && scenario.reconf.free()) {
    return result.scenario + ": an admitted task missed a deadline";
  }
  return {};
}

}  // namespace

std::vector<rt::Scenario> make_rt_pool(std::uint64_t seed, std::size_t count) {
  std::vector<rt::Scenario> pool;
  pool.reserve(count);
  for (std::size_t k = 0; k < count; ++k) {
    rt::ScenarioGenOptions options;
    options.family = k % 2 == 0 ? rt::ScenarioFamily::kChurn
                                : rt::ScenarioFamily::kReconfHeavy;
    options.arrivals = 16;
    options.seed = mix(seed ^ 0x7274) + k;
    pool.push_back(rt::generate_scenario(options));
  }
  return pool;
}

RtLayers measure_rt_layers(const std::vector<rt::Scenario>& pool) {
  RtLayers out;
  rt::RuntimeConfig config = rt_config();
  config.admission_probe = [&out](const reconf::TaskSet& candidate,
                                  reconf::Device device,
                                  const reconf::svc::AdmissionDecision& d) {
    out.calls.push_back({candidate, device, d.admitted});
  };
  std::uint64_t dispatches = 0;
  double hidden = 0.0;
  double stalled = 0.0;
  std::uint64_t costed_misses = 0;
  std::vector<std::string> summaries;
  out.digest = 0xcbf29ce484222325ULL;
  for (const rt::Scenario& s : pool) {
    const rt::RuntimeResult r = rt::run_scenario(s, config);
    if (!s.reconf.free()) costed_misses += r.deadline_misses;
    dispatches += r.dispatches;
    out.gated += r.admissions.size();
    out.admitted += r.admitted;
    hidden += static_cast<double>(r.hidden_ticks);
    stalled += static_cast<double>(r.stall_ticks);
    summaries.push_back(r.summary_json());
    for (const char c : summaries.back()) {
      out.digest = (out.digest ^ static_cast<unsigned char>(c)) * 0x100000001b3ULL;
    }
    if (out.fault.empty()) out.fault = rt_fault(s, r);
  }
  // The replay time base of gate_share, without the probe's copies; each
  // replay must reproduce the first one byte for byte.
  const rt::RuntimeConfig plain = rt_config();
  double replay_ns = 0.0;
  for (std::size_t k = 0; k < pool.size(); ++k) {
    const std::int64_t t0 = now_ns();
    const rt::RuntimeResult r = rt::run_scenario(pool[k], plain);
    replay_ns += static_cast<double>(now_ns() - t0);
    if (out.fault.empty() && r.summary_json() != summaries[k]) {
      out.fault = pool[k].name + ": summary_json differs between two replays";
    }
  }
  out.replay_ns = replay_ns;

  // Re-time each gate call from outside: rebuild the admitted set in a
  // fresh session (untimed), then time admitting the candidate.
  double admit_total = 0.0;
  for (const GateCall& call : out.calls) {
    reconf::svc::AdmissionSession session(call.device, nullptr,
                                          reconf::analysis::fast_any_request());
    const std::size_t prefix = call.candidate.size() - 1;
    for (std::size_t i = 0; i < prefix; ++i) {
      (void)session.try_admit(call.candidate[i]);
    }
    if (session.admitted().size() != prefix) {
      ++out.skipped;
      continue;
    }
    const std::int64_t a = now_ns();
    const reconf::svc::AdmissionDecision d =
        session.try_admit(call.candidate[prefix]);
    const std::int64_t b = now_ns();
    out.try_admit_ns.push_back(static_cast<double>(b - a));
    admit_total += static_cast<double>(b - a);
    if (d.admitted != call.admitted) ++out.mismatches;
  }
  const double ops = std::max<double>(1.0, static_cast<double>(pool.size()));
  out.gate_share = out.replay_ns > 0.0 ? admit_total / out.replay_ns : 0.0;
  out.dispatches_per_op = static_cast<double>(dispatches) / ops;
  out.admissions_per_op = static_cast<double>(out.gated) / ops;
  out.stall_hiding_ratio = hidden + stalled > 0.0 ? hidden / (hidden + stalled) : 0.0;
  out.costed_misses_per_op = static_cast<double>(costed_misses) / ops;
  return out;
}

}  // namespace perfbench

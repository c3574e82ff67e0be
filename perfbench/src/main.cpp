// perfbench_harness — the repository benchmark's driver. Run it through
// perfbench/run.py, which builds it and reconf_serve first:
//
//   perfbench_harness --workload NAME --seed N --seconds S --trace 0|1
//                     --server PATH --out-dir DIR [--commit SHA]
//
// --trace 0 measures the end-to-end metrics; --trace 1 is the separate
// traced pass that times each layer from outside on the same inputs. The
// last stdout line is the JSON result; every metric is also printed above
// it by name with its unit. Exit status 0 only when every verdict, summary
// and workload-intent check passed.

#include <sys/prctl.h>
#include <unistd.h>

#include <algorithm>
#include <charconv>
#include <cstdio>
#include <cstring>
#include <functional>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "analysis/engine.hpp"
#include "gen.hpp"
#include "layers.hpp"
#include "obs/metrics.hpp"
#include "proc.hpp"
#include "rt_work.hpp"
#include "selftest.hpp"
#include "stats.hpp"
#include "svc/batch.hpp"
#include "wire.hpp"

namespace perfbench {
namespace {

// ------------------------------------------------------------ workloads --

/// The fixed offered rate of each workload sits at about a tenth of its
/// saturated throughput on a quiet 4-vCPU VM, low enough that a contended
/// host does not push it past the knee (see perfbench/README.md). It is
/// never derived per run.
struct Workload {
  const char* name;
  WireSpec spec;
  double rate;          ///< open-loop offered load, requests/s
  std::size_t traced;   ///< requests in the traced in-process pass
};

constexpr Workload kWorkloads[] = {
    {"wire_small_unique", {Family::kSmall, 0}, 10000.0, 40000},
    {"wire_gn2_unique", {Family::kGn2, 0}, 2000.0, 6000},
    {"wire_hot_dup90", {Family::kGn2, 90}, 2000.0, 20000},
};

constexpr unsigned kConnections = 2;    ///< one generator thread over both
/// Requests in flight on each connection during saturation (closed loop).
constexpr unsigned kSaturationDepth = 32;
constexpr unsigned kSetupLaunches = 9;  ///< setup_s is their median
constexpr std::size_t kRtPool = 128;    ///< scenarios the rt layer is timed on
constexpr std::size_t kRttRequests = 4000;
/// Requests of each saturation burst that opens a --trace 0 run, and the
/// most bursts it sends.
constexpr std::uint64_t kBurstRequests = 20000;
constexpr unsigned kMaxBursts = 16;
/// A lone request slower than this waited for the io thread's 10 ms poll
/// timeout: the server has lost its io wake-ups.
constexpr double kLostWakeupUs = 5000.0;
/// A run is invalid, and fails, when the generator's own lateness moved the
/// bounded p50 by more than this share: the generator, not the server, fell
/// behind. (Host preemption of the generator's vCPU for a few milliseconds
/// reaches only the tail; a p99 lateness above kLateLimitUs is printed as
/// a warning on the tail figures, which no bound covers.)
constexpr double kLateShare = 0.05;
constexpr double kLateLimitUs = 500.0;
/// Likewise when the generator thread was this busy during saturation. (At
/// the fixed rate the generator busy-polls by design, so there only its
/// lateness tells.)
constexpr double kGeneratorBusyLimit = 0.9;
/// Blocks of the fixed-rate phase of a --trace 0 run.
constexpr unsigned kBlocks = 16;
/// On 4 or more CPUs the server runs on all but the last and the harness
/// (generator or replay thread) on the last, so the two never compete for
/// a core; on fewer CPUs nothing is pinned.
std::vector<int> server_cpus() {
  const long n = ::sysconf(_SC_NPROCESSORS_ONLN);
  std::vector<int> cpus;
  for (int c = 0; n >= 4 && c < n - 1; ++c) cpus.push_back(c);
  return cpus;
}

std::vector<int> harness_cpus() {
  const long n = ::sysconf(_SC_NPROCESSORS_ONLN);
  return n >= 4 ? std::vector<int>{static_cast<int>(n - 1)} : std::vector<int>{};
}

/// The first request of every server: a one-task set no workload sends.
constexpr const char* kFirstOp =
    "{\"id\":\"setup\",\"device\":100,\"tasks\":[{\"c\":126,\"d\":700,\"t\":700,\"a\":9}]}\n";

// ---------------------------------------------------------------- report --

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

std::string number(double v) {
  char buf[64];
  const auto end = std::to_chars(buf, buf + sizeof buf, v).ptr;
  return std::string(buf, end);
}

struct Run {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  bool correct = true;
  std::vector<Metric> metrics;
  /// Figures printed beside the metrics but kept out of the JSON result,
  /// whose metric set BENCHMARK.json fixes per pass.
  std::vector<Metric> notes;
  std::vector<std::string> problems;

  void add(const std::string& name, double value, const std::string& unit) {
    metrics.push_back({name, value, unit});
  }
  void note(const std::string& name, double value, const std::string& unit) {
    notes.push_back({name, value, unit});
  }
  void fail(const std::string& why) {
    correct = false;
    problems.push_back(why);
  }
  int finish() {
    for (const std::string& p : problems) std::printf("FAIL: %s\n", p.c_str());
    auto print = [](const Metric& m, const char* tag) {
      std::printf("%-28s %16s %-6s%s\n", m.name.c_str(), number(m.value).c_str(),
                  m.unit.c_str(), tag);
    };
    for (const Metric& m : metrics) print(m, "");
    for (const Metric& m : notes) print(m, " (printed only)");
    std::string json = "{\"correct\":";
    json += correct ? "true" : "false";
    json += ",\"attempted\":" + std::to_string(std::max<std::uint64_t>(1, attempted));
    json += ",\"failed\":" + std::to_string(failed) + ",\"metrics\":{";
    for (std::size_t i = 0; i < metrics.size(); ++i) {
      if (i != 0) json += ',';
      json += "\"" + metrics[i].name + "\":{\"value\":" + number(metrics[i].value) +
              ",\"unit\":\"" + metrics[i].unit + "\"}";
    }
    json += "}}";
    std::printf("%s\n", json.c_str());
    std::fflush(stdout);
    return correct ? 0 : 1;
  }
};

// ------------------------------------------------------------ checking --

/// What the server must answer for a request.
struct Expected {
  bool accepted = false;
  std::string_view accepted_by;
  std::uint64_t hash = 0;
};

Expected decide_expected(const reconf::analysis::AnalysisEngine& engine,
                         const reconf::TaskSet& ts, reconf::Device device) {
  const reconf::analysis::Decision d = engine.decide(ts, device);
  Expected e;
  e.accepted = d.accepted();
  e.accepted_by = d.accepted_by;
  e.hash = reconf::svc::verdict_cache_key(ts, device, engine);
  return e;
}

/// Tallies of one batch of checked answers.
struct Checked {
  std::uint64_t verdicts = 0;
  std::uint64_t schedulable = 0;
  std::uint64_t hits = 0;
  std::uint64_t by_dp = 0;
  std::uint64_t by_gn1 = 0;
  std::uint64_t by_gn2 = 0;
  std::uint64_t rejected = 0;
  std::uint64_t not_verdict = 0;  ///< shed / error / unparseable answers
  std::uint64_t mismatches = 0;
  std::string first_mismatch;

  void merge(const Checked& o) {
    verdicts += o.verdicts;
    schedulable += o.schedulable;
    hits += o.hits;
    by_dp += o.by_dp;
    by_gn1 += o.by_gn1;
    by_gn2 += o.by_gn2;
    rejected += o.rejected;
    not_verdict += o.not_verdict;
    mismatches += o.mismatches;
    if (first_mismatch.empty()) first_mismatch = o.first_mismatch;
  }
};

/// Checks every answer against an in-process decide() of the same build,
/// on three threads (the server is idle by then). `expect` may be called
/// concurrently. `unique` = every request carries a distinct key, so a
/// cache hit is itself a wrong answer.
Checked check_samples(const std::vector<const Sample*>& samples,
                      const std::function<Expected(std::uint64_t)>& expect,
                      bool unique) {
  constexpr unsigned kThreads = 3;
  std::vector<Checked> parts(kThreads);
  std::vector<std::thread> threads;
  for (unsigned t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      pin_thread(0, {});  // the server is idle now: use every CPU
      Checked& c = parts[t];
      for (std::size_t k = t; k < samples.size(); k += kThreads) {
        const Sample& s = *samples[k];
        const Response& r = s.response;
        if (!r.verdict) {
          ++c.not_verdict;
          continue;
        }
        ++c.verdicts;
        if (r.accepted) ++c.schedulable;
        if (r.cache_hit) ++c.hits;
        if (!r.accepted) ++c.rejected;
        else if (r.accepted_by == "dp") ++c.by_dp;
        else if (r.accepted_by == "gn1") ++c.by_gn1;
        else if (r.accepted_by == "gn2") ++c.by_gn2;
        const Expected e = expect(s.index);
        const bool ok = r.id_ok && r.id == s.index && r.accepted == e.accepted &&
                        r.accepted_by == e.accepted_by && r.hash == e.hash &&
                        !(unique && r.cache_hit);
        if (!ok) {
          ++c.mismatches;
          if (c.first_mismatch.empty()) {
            c.first_mismatch = "request " + std::to_string(s.index) +
                               ": answered " + (r.accepted ? "schedulable" : "inconclusive") +
                               " by '" + std::string(r.accepted_by) + "'" +
                               (r.cache_hit ? " (hit)" : "") + ", expected " +
                               (e.accepted ? "schedulable" : "inconclusive") + " by '" +
                               std::string(e.accepted_by) + "'";
          }
        }
      }
    });
  }
  for (std::thread& th : threads) th.join();
  Checked all;
  for (const Checked& c : parts) all.merge(c);
  return all;
}

/// Expected answers of a wire workload: hot tasksets memoized, fresh ones
/// decided on demand.
class WireExpect {
 public:
  explicit WireExpect(const RequestSource& source)
      : source_(source), engine_(reconf::svc::BatchOptions::default_request()) {
    for (std::uint64_t h = 0; h < (source.spec().hot_pct > 0 ? kHotKeys : 0); ++h) {
      hot_.push_back(compute(h));
    }
  }

  Expected operator()(std::uint64_t index) const {
    const std::uint64_t t = source_.taskset_of(index);
    return t < hot_.size() ? hot_[t] : compute(t);
  }

 private:
  Expected compute(std::uint64_t t) const {
    const reconf::TaskSet ts(source_.tasks(t));
    return decide_expected(engine_, ts, source_.device());
  }

  const RequestSource& source_;
  reconf::analysis::AnalysisEngine engine_;
  std::vector<Expected> hot_;
};

void add_samples(std::vector<const Sample*>& out, const DriveResult& run) {
  for (const Sample& s : run.samples) out.push_back(&s);
}

/// Counts a phase's failures: unanswered requests and connection errors.
void account(Run& run, const DriveResult& phase, const char* label) {
  run.attempted += phase.attempted;
  run.failed += phase.unanswered;
  if (!phase.error.empty()) {
    run.fail(std::string(label) + ": " + phase.error);
  }
}

/// Folds the checked answers into the run: wrong answers fail it.
void account(Run& run, const Checked& checked) {
  run.failed += checked.not_verdict + checked.mismatches;
  if (checked.mismatches > 0) {
    run.fail(std::to_string(checked.mismatches) + " wrong answers; first: " +
             checked.first_mismatch);
  }
}

double share(std::uint64_t part, std::uint64_t whole) {
  return whole == 0 ? 0.0 : static_cast<double>(part) / static_cast<double>(whole);
}

/// Prints the verdict mix and fails the run when it drifted off the layer
/// the workload exists to load.
void check_mix(Run& run, const Workload& w, const Checked& c) {
  const double dp = share(c.by_dp, c.verdicts);
  const double all_three = share(c.by_gn2 + c.rejected, c.verdicts);
  const double hit = share(c.hits, c.verdicts);
  std::printf("mix: %llu verdicts, dp %.3f gn1 %.3f gn2 %.3f rejected %.3f "
              "(all three ran %.3f), cache hit ratio %.3f\n",
              static_cast<unsigned long long>(c.verdicts), dp,
              share(c.by_gn1, c.verdicts), share(c.by_gn2, c.verdicts),
              share(c.rejected, c.verdicts), all_three, hit);
  const std::string name = w.name;
  if (name == "wire_small_unique" && dp < 0.8) {
    run.fail("mix: DP decided only " + number(dp) + " of wire_small_unique");
  }
  if (name != "wire_small_unique" && w.spec.family == Family::kGn2 &&
      w.spec.hot_pct == 0 && all_three < 0.8) {
    run.fail("mix: all three analyzers ran on only " + number(all_three) +
             " of wire_gn2_unique");
  }
  if (w.spec.hot_pct > 0 && (hit < 0.85 || hit > 0.95)) {
    run.fail("mix: cache hit ratio " + number(hit) + " is not near 0.9");
  }
}

std::string stamp(const std::string& workload, std::uint64_t seed, int trace,
                  const std::string& commit) {
  const char* obs_env = std::getenv("RECONF_OBS");
  std::string s = "{\"workload\":\"" + workload + "\",\"seed\":" + std::to_string(seed) +
                  ",\"trace\":" + std::to_string(trace) +
                  ",\"nproc\":" + std::to_string(::sysconf(_SC_NPROCESSORS_ONLN)) +
                  ",\"server_threads\":\"1 io + 2 shard workers\"" +
                  ",\"generator_threads\":1,\"connections\":" +
                  std::to_string(kConnections) + ",\"build_type\":\"" PERFBENCH_BUILD_TYPE
                  "\",\"compiler\":\"" PERFBENCH_COMPILER "\",\"commit\":\"" + commit +
                  "\",\"obs\":\"";
#ifdef RECONF_OBS_DISABLED
  s += "compiled out";
#else
  s += reconf::obs::enabled() ? "enabled" : "disabled";
  if (obs_env != nullptr) s += std::string(" (RECONF_OBS=") + obs_env + ")";
#endif
  return s + "\"}";
}

void selftests(Run& run) {
  for (const std::string& f : run_selftests()) {
    run.fail("self-test: " + f);
  }
}

double us(double ns) { return ns * 1e-3; }

/// Share of all CPU time between two /proc/stat readings that the
/// hypervisor gave to other guests.
double steal_share(const CpuTimes& before, const CpuTimes& after) {
  const auto total = static_cast<double>(after.total - before.total);
  return total > 0 ? static_cast<double>(after.steal - before.steal) / total : 0.0;
}

/// Latency of a fixed-rate phase, timed from each op's intended start.
struct FixedRate {
  std::vector<double> latency;  ///< every sample, ns
  std::vector<double> late;     ///< generator lateness, ns
  /// First quartile of the per-block medians, ns: host stalls (vCPU steal)
  /// only ever raise a block's median, and one unusually quiet block does
  /// not decide it either. It reads below the whole-run p50 and does not
  /// see a cost confined to a quarter of the blocks or fewer.
  double block_p50_q25 = 0.0;
  double block_p50_median = 0.0;  ///< printed beside it to show the gap
  /// block_p50_q25 timed from when the generator queued each request: the
  /// difference is the generator's own lateness in the bounded figure.
  double queued_block_p50_q25 = 0.0;
};

FixedRate summarize_fixed_rate(const std::vector<DriveResult>& blocks) {
  FixedRate out;
  std::vector<double> block_p50;
  std::vector<double> queued_block_p50;
  for (const DriveResult& block : blocks) {
    if (block.samples.empty()) continue;
    std::vector<double> latency;
    std::vector<double> queued;
    for (const Sample& s : block.samples) {
      latency.push_back(static_cast<double>(s.received_ns - s.intended_ns));
      queued.push_back(static_cast<double>(s.received_ns - s.appended_ns));
      out.late.push_back(static_cast<double>(s.appended_ns - s.intended_ns));
    }
    block_p50.push_back(percentile(latency, 50));
    queued_block_p50.push_back(percentile(queued, 50));
    out.latency.insert(out.latency.end(), latency.begin(), latency.end());
  }
  out.block_p50_q25 = percentile(block_p50, 25);
  out.block_p50_median = percentile(block_p50, 50);
  out.queued_block_p50_q25 = percentile(queued_block_p50, 25);
  return out;
}

/// Prints the fixed-rate phase: the unbounded tail, the generator's
/// lateness and the host's steal. Fails the run when the generator's
/// lateness reached the bounded p50 (see kLateShare).
void report_fixed_rate(Run& run, const Workload& w, const FixedRate& fixed, double steal) {
  const double late_p99 = us(percentile(fixed.late, 99));
  const double late_share =
      fixed.block_p50_q25 > 0 ? 1.0 - fixed.queued_block_p50_q25 / fixed.block_p50_q25 : 0.0;
  std::printf("fixed rate %.0f/s: %zu samples; p50 %.1f us, p90 %.1f us, p99 %.1f us "
              "(only the per-block p50 is bounded); generator late p99 %.1f us, its share "
              "of the bounded p50 %.4f; host steal %.3f\n",
              w.rate, fixed.latency.size(), us(percentile(fixed.latency, 50)),
              us(percentile(fixed.latency, 90)), us(percentile(fixed.latency, 99)), late_p99,
              late_share, steal);
  if (late_p99 > kLateLimitUs) {
    std::printf("warning: the tail includes the generator's own lateness (late p99 %.0f us "
                "> %.0f us)\n",
                late_p99, kLateLimitUs);
  }
  if (late_share > kLateShare) {
    run.fail("RUN INVALID: the generator fell behind; its lateness is " + number(late_share) +
             " of the bounded p50 (limit " + number(kLateShare) + ")");
  }
}

/// Completions per second in each quarter-second window of [start, end).
std::vector<double> window_rates(const std::vector<std::int64_t>& completions,
                                 std::int64_t start, std::int64_t end) {
  constexpr std::int64_t kWindow = 250'000'000;
  std::vector<double> counts(static_cast<std::size_t>(std::max<std::int64_t>(1, (end - start) / kWindow)));
  for (const std::int64_t t : completions) {
    const std::int64_t w = (t - start) / kWindow;
    if (t >= start && w < static_cast<std::int64_t>(counts.size())) ++counts[w];
  }
  for (double& c : counts) c *= 1e9 / static_cast<double>(kWindow);
  return counts;
}

/// Median round trip of requests sent one at a time, each on a fresh
/// connection, to an otherwise idle server, us. A healthy server answers
/// about as fast as net.rtt_unloaded_us; one whose io thread no longer hears
/// its shards' wake-ups answers only at its 10 ms poll timeout.
double lone_rtt_us(std::uint16_t port) {
  std::vector<double> rtt;
  for (int k = 0; k < 9; ++k) {
    const std::int64_t t0 = now_ns();
    if (exchange(port, kFirstOp).empty()) continue;
    rtt.push_back(us(static_cast<double>(now_ns() - t0)));
  }
  return median(rtt);
}

// ------------------------------------------------------- wire workloads --

struct Paths {
  std::string server;
  std::string out_dir;
};

int wire_measured(const Workload& w, std::uint64_t seed, double seconds,
                  const Paths& paths) {
  Run run;
  selftests(run);
  const RequestSource source(w.spec, seed);
  const ServerConfig config{paths.server, paths.out_dir, server_cpus()};
  const LineFn line = [&](std::uint64_t i, std::string& out) {
    source.append_line(i, out);
  };

  std::vector<double> setups;
  ServerProcess server;
  for (unsigned k = 0; k < kSetupLaunches; ++k) {
    ServerProcess launch;
    double setup = 0.0;
    std::string error;
    if (!launch.start(config, kFirstOp, &setup, &error)) {
      run.fail("server: " + error);
      return run.finish();
    }
    setups.push_back(setup);
    if (k + 1 < kSetupLaunches) {
      launch.stop();
    } else {
      server = std::move(launch);
    }
  }

  // Warm-up: saturation bursts, then the fixed rate. The bursts take the
  // server to the state a long run ends up in, where its io thread has lost
  // its shards' wake-ups (see perfbench/README.md); a run that measured a
  // fresh server instead would read several times lower. Another burst
  // follows only while a lone request is still answered before the poll
  // timeout. Every burst sends the same requests, so that what the bursts
  // leave in the cache (and in peak_rss_mb) does not depend on how many ran
  // or on the host's speed. Then the fixed-rate phase in blocks (see
  // FixedRate), on requests after the bursts'.
  DriveConfig phase;
  phase.port = server.port();
  phase.connections = kConnections;
  phase.depth = kSaturationDepth;
  phase.seconds = 0.25 * seconds;
  phase.max_requests = kBurstRequests;
  phase.spin = false;
  std::vector<DriveResult> phases;
  phases.reserve(kMaxBursts + 1 + kBlocks);
  double warm_rtt = 0.0;
  unsigned bursts = 0;
  while (bursts < kMaxBursts && warm_rtt < kLostWakeupUs) {
    phases.push_back(drive(phase, line));
    warm_rtt = lone_rtt_us(server.port());
    ++bursts;
  }
  std::printf("warm-up: %u saturation burst(s) of %llu requests; then a lone request took "
              "%.0f us\n",
              bursts, static_cast<unsigned long long>(kBurstRequests), warm_rtt);
  phase.rate = w.rate;
  phase.seconds = 0.05 * seconds;
  phase.max_requests = 0;
  phase.spin = true;
  phase.first_index = kBurstRequests;
  phases.push_back(drive(phase, line));
  const std::size_t warmup_phases = phases.size();
  phase.seconds = 0.95 * seconds / kBlocks;
  double server_cpu = 0.0;
  const CpuTimes machine0 = cpu_times();
  for (unsigned block = 0; block < kBlocks; ++block) {
    phase.first_index = phases.back().next_index;
    const double cpu0 = cpu_seconds(server.pid());
    phases.push_back(drive(phase, line));
    server_cpu += cpu_seconds(server.pid()) - cpu0;
  }
  const double steal = steal_share(machine0, cpu_times());
  const double lone_rtt = lone_rtt_us(server.port());
  const ServerStats stats = query_stats(server.port());
  const double rss = peak_rss_mb(server.pid());
  server.stop();

  std::vector<const Sample*> burst_samples;
  std::vector<const Sample*> samples;
  for (std::size_t k = 0; k < phases.size(); ++k) {
    account(run, phases[k], "load phase");
    add_samples(k < bursts ? burst_samples : samples, phases[k]);
  }
  const WireExpect expect(source);
  // A repeated burst sends its requests again, so hits are right there.
  account(run, check_samples(burst_samples, std::cref(expect), false));
  const Checked checked = check_samples(samples, std::cref(expect), w.spec.hot_pct == 0);
  account(run, checked);
  check_mix(run, w, checked);

  const FixedRate fixed = summarize_fixed_rate({phases.begin() + static_cast<std::ptrdiff_t>(warmup_phases), phases.end()});
  report_fixed_rate(run, w, fixed, steal);
  std::printf("server stats: shard imbalance %.3f, sheds %.0f, evictions %.0f\n",
              stats.shard_imbalance, stats.sheds, stats.evictions);

  run.add("setup_s", median(setups), "s");
  run.add("p50_us", us(fixed.block_p50_q25), "us");
  run.add("cpu_us_per_op",
          server_cpu * 1e6 / std::max<double>(1.0, static_cast<double>(fixed.latency.size())),
          "us");
  run.add("peak_rss_mb", rss, "MB");
  run.add("success_ratio", 1.0 - share(run.failed, run.attempted), "ratio");
  run.add("accept_ratio", share(checked.schedulable, checked.verdicts), "ratio");
  run.note("p50_whole_run_us", us(percentile(fixed.latency, 50)), "us");
  run.note("p50_block_median_us", us(fixed.block_p50_median), "us");
  run.note("tail.p99_us", us(percentile(fixed.latency, 99)), "us");
  run.note("gen.late_p99_us", us(percentile(fixed.late, 99)), "us");
  run.note("host.steal_ratio", steal, "ratio");
  run.note("net.lone_rtt_after_load_us", lone_rtt, "us");
  return run.finish();
}

/// Per-layer metrics of the serving path for `lines`, whose answers
/// `expect` gives: the in-process traced pass plus one connection sending
/// one request at a time to a fresh server.
void serving_layers(Run& run, const std::vector<std::string>& lines,
                    const std::function<Expected(std::uint64_t)>& expect,
                    bool unique, const Paths& paths, const std::string& trace_path,
                    ServerProcess& server) {
  const LayerReport layers = run_layers(lines, trace_path);
  if (!layers.error.empty()) run.fail("layers: " + layers.error);
  if (layers.mismatches > 0) {
    run.fail(std::to_string(layers.mismatches) +
             " traced verdicts differ from evaluate_with_engine");
  }

  std::string error;
  double setup = 0.0;
  if (!server.start({paths.server, paths.out_dir, server_cpus()}, kFirstOp, &setup, &error)) {
    run.fail("server: " + error);
    return;
  }
  DriveConfig one;
  one.port = server.port();
  one.connections = 1;
  one.depth = 1;
  one.seconds = 60.0;
  one.max_requests = std::min(kRttRequests, lines.size());
  const DriveResult rtt_run =
      drive(one, [&](std::uint64_t i, std::string& out) { out += lines[i]; });
  account(run, rtt_run, "single-connection pass");
  std::vector<const Sample*> samples;
  add_samples(samples, rtt_run);
  account(run, check_samples(samples, expect, unique));

  std::vector<double> rtt;
  std::vector<double> inproc;
  for (const Sample& s : rtt_run.samples) {
    rtt.push_back(static_cast<double>(s.received_ns - s.sent_ns));
    inproc.push_back(layers.inproc_ns[s.index]);
  }
  const double rtt_p50 = percentile(rtt, 50);
  const double inproc_p50 = percentile(inproc, 50);
  const double res = residual(rtt_p50, inproc_p50);
  const double traced_sum =
      layers.svc_self_ns + layers.analysis_self_ns + layers.harness_self_ns;
  auto part = [&](double self) { return traced_sum > 0 ? us(inproc_p50 * self / traced_sum) : 0; };
  std::printf("accounting (us): rtt p50 %.2f = in-process p50 %.2f [svc %.2f + analysis "
              "%.2f + harness %.2f, split by traced self time] + net residual %.2f\n",
              us(rtt_p50), us(inproc_p50), part(layers.svc_self_ns),
              part(layers.analysis_self_ns), part(layers.harness_self_ns), us(res));
  std::printf("layers: %zu requests traced, chrome trace at %s\n", layers.requests,
              trace_path.c_str());

  run.add("net.rtt_unloaded_us", us(rtt_p50), "us");
  run.add("net.residual_us", us(res), "us");
  run.add("svc.frame_ns", layers.call_p50_ns[kFrame], "ns");
  run.add("svc.parse_ns", layers.call_p50_ns[kParse], "ns");
  run.add("svc.format_ns", layers.call_p50_ns[kFormat], "ns");
  run.add("svc.key_ns", layers.call_p50_ns[kKey], "ns");
  run.add("svc.cache_lookup_ns", layers.call_p50_ns[kLookup], "ns");
  run.add("svc.cache_insert_ns", layers.call_p50_ns[kInsert], "ns");
  run.add("svc.evictions_per_op", layers.evictions_per_op, "ratio");
  run.add("svc.cache_hit_ratio", layers.hit_ratio, "ratio");
  run.add("svc.evaluate_ns", layers.evaluate_p50_ns, "ns");
  run.add("svc.request_bytes", layers.request_bytes, "bytes");
  run.add("svc.self_ns", layers.svc_self_ns, "ns");
  run.add("analysis.decide_p50_ns", layers.call_p50_ns[kDecide], "ns");
  run.add("analysis.decide_p99_ns", layers.decide_p99_ns, "ns");
  run.add("analysis.self_ns", layers.analysis_self_ns, "ns");
  run.add("analysis.analyzers_per_op", layers.analyzers_per_op, "count");
  run.add("analysis.useful_work_ratio", layers.useful_work_ratio, "ratio");
  run.add("analysis.accepted_by.dp", static_cast<double>(layers.accepted_by_dp), "count");
  run.add("analysis.accepted_by.gn1", static_cast<double>(layers.accepted_by_gn1), "count");
  run.add("analysis.accepted_by.gn2", static_cast<double>(layers.accepted_by_gn2), "count");
  run.add("analysis.rejected", static_cast<double>(layers.rejected), "count");
  run.add("trace.overhead_ratio", layers.overhead_ratio, "ratio");
  run.add("trace.harness_self_ns", layers.harness_self_ns, "ns");
}

void add_server_stats(Run& run, const ServerStats& stats) {
  if (!stats.ok) run.fail("server: no answer to the stats request");
  run.add("net.shard_imbalance", stats.shard_imbalance, "ratio");
  run.add("net.sheds", stats.sheds, "count");
}

/// The unbounded end-to-end figures of a traced run.
void add_load_metrics(Run& run, double ops_per_s, const FixedRate& fixed, double steal) {
  run.add("sat.ops_per_s", ops_per_s, "1/s");
  run.add("tail.p90_us", us(percentile(fixed.latency, 90)), "us");
  run.add("tail.p99_us", us(percentile(fixed.latency, 99)), "us");
  run.add("gen.late_p99_us", us(percentile(fixed.late, 99)), "us");
  run.add("host.steal_ratio", steal, "ratio");
}

void add_rt_layers(Run& run, const RtLayers& rt) {
  if (!rt.fault.empty()) run.fail("runtime: " + rt.fault);
  if (rt.mismatches > 0) {
    run.fail(std::to_string(rt.mismatches) +
             " re-timed admissions disagree with the runtime's gate");
  }
  if (rt.gated == 0 || rt.stall_hiding_ratio == 0.0) {
    run.fail("rt mix: the pool gates no arrivals or hides no reconfiguration");
  }
  std::printf("rt: %llu gate calls, admitted %.3f, %zu re-timed, %llu skipped (prefix not "
              "re-admitted), summary digest %016llx\n",
              static_cast<unsigned long long>(rt.gated), share(rt.admitted, rt.gated),
              rt.try_admit_ns.size(), static_cast<unsigned long long>(rt.skipped),
              static_cast<unsigned long long>(rt.digest));
  run.add("rt.try_admit_p50_ns", percentile(rt.try_admit_ns, 50), "ns");
  run.add("rt.try_admit_p99_ns", percentile(rt.try_admit_ns, 99), "ns");
  run.add("rt.gate_share", rt.gate_share, "ratio");
  run.add("rt.dispatches_per_op", rt.dispatches_per_op, "count");
  run.add("rt.admissions_per_op", rt.admissions_per_op, "count");
  run.add("rt.stall_hiding_ratio", rt.stall_hiding_ratio, "ratio");
  run.add("rt.costed_misses_per_op", rt.costed_misses_per_op, "count");
}

int wire_traced(const Workload& w, std::uint64_t seed, double seconds,
                const Paths& paths) {
  Run run;
  selftests(run);
  const RequestSource source(w.spec, seed);
  const WireExpect expect(source);
  std::vector<std::string> lines(w.traced);
  for (std::size_t i = 0; i < lines.size(); ++i) source.append_line(i, lines[i]);

  ServerProcess server;
  serving_layers(run, lines, std::cref(expect), w.spec.hot_pct == 0, paths,
                 paths.out_dir + "/trace-" + w.name + ".json", server);
  if (server.pid() > 0) {
    // Saturation, then the fixed rate again: throughput and the latency
    // tail, measured here without a bound (see perfbench/README.md).
    const LineFn line = [&](std::uint64_t i, std::string& out) { source.append_line(i, out); };
    DriveConfig phase;
    phase.port = server.port();
    phase.connections = kConnections;
    phase.depth = kSaturationDepth;
    phase.seconds = 0.35 * seconds;
    phase.first_index = lines.size();
    phase.spin = false;
    const CpuTimes machine0 = cpu_times();
    const double generator0 = cpu_seconds(::getpid());
    const DriveResult saturated = drive(phase, line);
    const double generator_busy = (cpu_seconds(::getpid()) - generator0) / phase.seconds;
    phase.rate = w.rate;
    phase.spin = true;
    phase.first_index = saturated.next_index;
    const DriveResult fixed_run = drive(phase, line);
    const double steal = steal_share(machine0, cpu_times());
    run.add("net.lone_rtt_after_load_us", lone_rtt_us(server.port()), "us");
    add_server_stats(run, query_stats(server.port()));
    server.stop();

    std::vector<const Sample*> samples;
    for (const DriveResult* p : {&saturated, &fixed_run}) {
      account(run, *p, "load phase");
      add_samples(samples, *p);
    }
    account(run, check_samples(samples, std::cref(expect), w.spec.hot_pct == 0));
    std::vector<std::int64_t> done;
    for (const Sample& s : saturated.samples) done.push_back(s.received_ns);
    const FixedRate fixed = summarize_fixed_rate({fixed_run});
    report_fixed_rate(run, w, fixed, steal);
    std::printf("saturation (%u in flight): generator busy %.2f cpu\n",
                kSaturationDepth * kConnections, generator_busy);
    if (generator_busy > kGeneratorBusyLimit) {
      run.fail("RUN INVALID: the generator, not the server, saturated (busy " +
               number(generator_busy) + " cpu)");
    }
    add_load_metrics(run, median(window_rates(done, saturated.start_ns, saturated.end_ns)),
                     fixed, steal);
  }
  add_rt_layers(run, measure_rt_layers(make_rt_pool(seed, kRtPool)));
  return run.finish();
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  std::map<std::string, std::string> args;
  for (int i = 1; i < argc; ++i) {
    const std::string key = argv[i];
    if (key.rfind("--", 0) == 0 && i + 1 < argc) {
      args[key] = argv[++i];
    } else {
      std::fprintf(stderr, "unexpected argument: %s\n", key.c_str());
      return 2;
    }
  }
  auto get = [&](const std::string& k, const std::string& fallback = {}) {
    const auto it = args.find(k);
    return it == args.end() ? fallback : it->second;
  };
  try {
    const std::uint64_t seed = std::stoull(get("--seed", "1"));
    const std::string name = get("--workload");
    const double seconds = std::stod(get("--seconds", "0"));
    const int trace = std::stoi(get("--trace", "0"));
    const Paths paths{get("--server"), get("--out-dir", ".")};
    const Workload* workload = nullptr;
    for (const Workload& w : kWorkloads) {
      if (name == w.name) workload = &w;
    }
    if (workload == nullptr || seconds <= 0 || (trace != 0 && trace != 1) ||
        paths.server.empty()) {
      std::fprintf(stderr,
                   "usage: perfbench_harness --workload NAME --seed N --seconds S "
                   "--trace 0|1 --server PATH --out-dir DIR [--commit SHA]\n");
      return 2;
    }
    // Wake the generator on its schedule, not up to 50 us later.
    ::prctl(PR_SET_TIMERSLACK, 1UL, 0UL, 0UL, 0UL);
    pin_thread(0, harness_cpus());
    std::printf("# stamp %s\n", stamp(name, seed, trace, get("--commit", "unknown")).c_str());
    return trace == 0 ? wire_measured(*workload, seed, seconds, paths)
                      : wire_traced(*workload, seed, seconds, paths);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench_harness: %s\n", e.what());
    return 1;
  }
}

// bench_report — machine-readable perf baseline for the analysis kernels
// and the svc verdict path. Self-timed (no google-benchmark dependency),
// so it runs everywhere the library builds, including the CI smoke job.
//
//   bench_report [--out=BENCH_perf.json] [--quick]
//
//   --out=PATH   where to write the JSON report (default BENCH_perf.json
//                in the current directory); "-" prints to stdout only
//   --quick      CI smoke sizing: fewer repetitions, smaller request
//                stream — trend-quality numbers in ~a second
//
// Measurements:
//   * ns/op for the reference evaluators (dp_test/gn1_test/gn2_test, the
//     full-diagnostics TestReport path) and the SoA fast path
//     (AnalysisEngine::decide over single-analyzer engines) at
//     N ∈ {4, 8, 16, 32, 64}, median of R repetitions;
//   * the log2(t(64)/t(32)) complexity exponent per series — the fast GN2
//     sweep must stay visibly below the reference's ~3;
//   * svc throughput (req/s) at 0% and 90% duplicate rates with the fast
//     serving default: one evaluate_with_engine loop over one ShardCache,
//     single-threaded for machine comparability;
//   * latency percentiles (p50/p95/p99, nanoseconds) from the obs
//     histograms: per-analyzer decide() latency in measured mode and the
//     svc request latency over a mixed-duplicate stream. The ns/op and
//     throughput series above run with obs DISABLED (baseline
//     comparability — the committed baseline predates src/obs/); the
//     percentile pass then re-enables it.
//
// The committed BENCH_perf.json at the repo root is the baseline this tool
// last produced on the reference container; regenerate with
//   cmake --build build -j && ./build/bench_report --out=BENCH_perf.json
// and commit the diff alongside any change that moves the numbers.

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "analysis/dp.hpp"
#include "analysis/engine.hpp"
#include "analysis/gn1.hpp"
#include "analysis/gn2.hpp"
#include "common/rng.hpp"
#include "common/stopwatch.hpp"
#include "gen/generator.hpp"
#include "obs/metrics.hpp"
#include "svc/batch.hpp"

namespace {

using namespace reconf;

constexpr int kSizes[] = {4, 8, 16, 32, 64};

TaskSet make_taskset(int n, std::uint64_t seed) {
  gen::GenRequest req;
  req.profile = gen::GenProfile::unconstrained(n);
  req.target_system_util = 0.3 * 100.0;
  req.seed = seed;
  const auto ts = gen::generate_with_retries(req);
  RECONF_ASSERT(ts.has_value());
  return *ts;
}

/// Median ns/op of `fn` over `reps` repetitions, each calibrated to run at
/// least `min_rep_ns` of wall time.
template <class Fn>
double measure_ns(Fn&& fn, int reps, double min_rep_ns) {
  // Calibrate the iteration count once.
  std::uint64_t iters = 1;
  for (;;) {
    Stopwatch w;
    for (std::uint64_t i = 0; i < iters; ++i) fn();
    const double ns = w.seconds() * 1e9;
    if (ns >= min_rep_ns || iters > (1ull << 30)) break;
    const double grow = ns > 0 ? min_rep_ns / ns * 1.2 : 2.0;
    iters = std::max<std::uint64_t>(
        iters + 1, static_cast<std::uint64_t>(
                       static_cast<double>(iters) * std::min(grow, 16.0)));
  }
  std::vector<double> samples;
  samples.reserve(static_cast<std::size_t>(reps));
  for (int r = 0; r < reps; ++r) {
    Stopwatch w;
    for (std::uint64_t i = 0; i < iters; ++i) fn();
    samples.push_back(w.seconds() * 1e9 / static_cast<double>(iters));
  }
  std::sort(samples.begin(), samples.end());
  return samples[samples.size() / 2];
}

struct Series {
  std::string test;  ///< "dp" / "gn1" / "gn2"
  std::string path;  ///< "reference" / "fast"
  std::vector<std::pair<int, double>> ns_per_op;  ///< (N, ns)

  /// log2 growth from the last size doubling — the empirical complexity
  /// exponent (3 ≈ cubic, 2 ≈ quadratic, 1 ≈ linear).
  [[nodiscard]] double exponent() const {
    const auto& a = ns_per_op[ns_per_op.size() - 2];
    const auto& b = ns_per_op.back();
    return std::log2(b.second / a.second);
  }
};

analysis::AnalysisEngine fast_engine(const char* test) {
  return analysis::AnalysisEngine{analysis::fast_single_request(test)};
}

std::vector<Series> run_analysis_benches(int reps, double min_rep_ns) {
  std::vector<Series> out;
  const Device dev{100};
  const auto add = [&](const char* test, const char* path, auto&& eval) {
    Series s{test, path, {}};
    for (const int n : kSizes) {
      // One seed per (test, N), shared between reference and fast so the
      // speedup column compares identical work.
      const TaskSet ts = make_taskset(n, 0xBA5E + static_cast<unsigned>(n));
      s.ns_per_op.emplace_back(n, measure_ns([&] { eval(ts, dev); }, reps,
                                             min_rep_ns));
    }
    out.push_back(std::move(s));
  };

  add("dp", "reference", [](const TaskSet& t, Device d) {
    (void)analysis::dp_test(t, d).accepted();
  });
  add("gn1", "reference", [](const TaskSet& t, Device d) {
    (void)analysis::gn1_test(t, d).accepted();
  });
  add("gn2", "reference", [](const TaskSet& t, Device d) {
    (void)analysis::gn2_test(t, d).accepted();
  });
  add("dp", "fast", [e = fast_engine("dp")](const TaskSet& t, Device d) {
    (void)e.decide(t, d).accepted();
  });
  add("gn1", "fast", [e = fast_engine("gn1")](const TaskSet& t, Device d) {
    (void)e.decide(t, d).accepted();
  });
  add("gn2", "fast", [e = fast_engine("gn2")](const TaskSet& t, Device d) {
    (void)e.decide(t, d).accepted();
  });
  return out;
}

struct ServicePoint {
  double dup = 0.0;
  double req_per_s = 0.0;
  double hit_rate = 0.0;
};

/// Answers every request of `stream` in order on the calling thread —
/// single-threaded for machine-comparable numbers — and returns the wall
/// seconds it took.
double evaluate_stream(const std::vector<svc::BatchRequest>& stream,
                       svc::ShardCache& cache) {
  const analysis::AnalysisEngine engine(
      svc::BatchOptions::default_request());
  Stopwatch clock;
  for (const svc::BatchRequest& request : stream) {
    (void)svc::evaluate_with_engine(engine, request, &cache);
  }
  return clock.seconds();
}

std::vector<ServicePoint> run_service_bench(std::size_t requests) {
  // Mirrors bench_service's stream shape: a pool spread across the
  // schedulability cliff, duplicates drawn from a hot set.
  const std::size_t hot = 128;
  std::vector<TaskSet> pool;
  pool.reserve(hot + requests);
  for (std::size_t i = 0; pool.size() < hot + requests; ++i) {
    gen::GenRequest req;
    req.profile = gen::GenProfile::unconstrained(12);
    req.seed = derive_seed(0xBE5EC0DE, i);
    req.target_system_util = 5.0 + 90.0 * static_cast<double>(i % 64) / 63.0;
    req.target_tolerance = 2.0;
    if (auto ts = gen::generate(req)) pool.push_back(std::move(*ts));
  }

  std::vector<ServicePoint> out;
  for (const double dup : {0.0, 0.9}) {
    std::vector<svc::BatchRequest> stream;
    stream.reserve(requests);
    std::size_t fresh = hot;
    for (std::size_t i = 0; i < requests; ++i) {
      Xoshiro256ss rng(derive_seed(0xD0BE5EC0, i));
      svc::BatchRequest r;
      r.id = std::to_string(i);
      r.device = Device{100};
      if (rng.uniform01() < dup || fresh >= pool.size()) {
        r.taskset = pool[static_cast<std::size_t>(rng.uniform_int(
            0, static_cast<std::int64_t>(hot) - 1))];
      } else {
        r.taskset = pool[fresh++];
      }
      stream.push_back(std::move(r));
    }

    svc::ShardCache cache(1 << 16);
    const double seconds = evaluate_stream(stream, cache);
    out.push_back({dup, static_cast<double>(requests) / seconds,
                   cache.stats().hit_rate()});
  }
  return out;
}

struct Percentiles {
  std::string name;  ///< "dp" / "gn1" / "gn2" / "svc_request"
  std::uint64_t p50 = 0;
  std::uint64_t p95 = 0;
  std::uint64_t p99 = 0;
  std::uint64_t count = 0;
};

Percentiles snapshot_percentiles(std::string name,
                                 const std::string& histogram) {
  const obs::HistogramSnapshot snap =
      obs::MetricsRegistry::instance().histogram(histogram).snapshot();
  return {std::move(name), snap.percentile(0.50), snap.percentile(0.95),
          snap.percentile(0.99), snap.count};
}

/// Obs-enabled pass: populates and reads the latency histograms the serving
/// tier exposes. Per-analyzer decide() latency needs measured mode (the
/// serving default records no engine timings — see engine.cpp); the svc
/// request histogram fills on the normal path, driven here by a short
/// mixed-duplicate stream.
std::vector<Percentiles> run_percentile_pass(std::size_t iters,
                                             std::size_t requests) {
  obs::set_enabled(true);
  std::vector<Percentiles> out;
  const Device dev{100};
  for (const char* test : {"dp", "gn1", "gn2"}) {
    analysis::AnalysisRequest request = analysis::fast_single_request(test);
    request.measure = true;
    const analysis::AnalysisEngine engine{std::move(request)};
    const TaskSet ts = make_taskset(32, 0xBA5E + 32u);
    for (std::size_t i = 0; i < iters; ++i) (void)engine.decide(ts, dev);
    out.push_back(snapshot_percentiles(
        test,
        "reconf_engine_latency_ns{analyzer=\"" + std::string(test) + "\"}"));
  }

  std::vector<svc::BatchRequest> stream;
  stream.reserve(requests);
  for (std::size_t i = 0; i < requests; ++i) {
    Xoshiro256ss rng(derive_seed(0x0B5EC0DE, i));
    gen::GenRequest req;
    req.profile = gen::GenProfile::unconstrained(12);
    // Half the stream repeats 16 hot seeds — hit and miss latencies both
    // land in the histogram, like real admission traffic.
    req.seed = derive_seed(0x0B5EC0DE, rng.uniform01() < 0.5
                                           ? i % 16
                                           : i + (1u << 20));
    req.target_system_util =
        5.0 + 90.0 * static_cast<double>(i % 64) / 63.0;
    req.target_tolerance = 2.0;
    if (auto ts = gen::generate(req)) {
      svc::BatchRequest r;
      r.id = std::to_string(i);
      r.device = dev;
      r.taskset = std::move(*ts);
      stream.push_back(std::move(r));
    }
  }
  svc::ShardCache cache(1 << 16);
  (void)evaluate_stream(stream, cache);
  out.push_back(
      snapshot_percentiles("svc_request", "reconf_svc_request_latency_ns"));
  return out;
}

std::string to_json(const std::vector<Series>& analysis,
                    const std::vector<ServicePoint>& service,
                    const std::vector<Percentiles>& percentiles, bool quick) {
  char buf[256];
  std::string json = "{\n  \"schema\": \"reconf-bench-perf/1\",\n";
  json += quick ? "  \"mode\": \"quick\",\n" : "  \"mode\": \"full\",\n";

  json += "  \"analysis\": [\n";
  for (std::size_t s = 0; s < analysis.size(); ++s) {
    const Series& series = analysis[s];
    for (std::size_t p = 0; p < series.ns_per_op.size(); ++p) {
      std::snprintf(buf, sizeof buf,
                    "    {\"test\": \"%s\", \"path\": \"%s\", \"n\": %d, "
                    "\"ns_per_op\": %.1f}%s\n",
                    series.test.c_str(), series.path.c_str(),
                    series.ns_per_op[p].first, series.ns_per_op[p].second,
                    s + 1 == analysis.size() && p + 1 == series.ns_per_op.size()
                        ? ""
                        : ",");
      json += buf;
    }
  }
  json += "  ],\n  \"complexity_exponents\": {";
  for (std::size_t s = 0; s < analysis.size(); ++s) {
    std::snprintf(buf, sizeof buf, "%s\"%s_%s\": %.2f",
                  s == 0 ? "" : ", ", analysis[s].test.c_str(),
                  analysis[s].path.c_str(), analysis[s].exponent());
    json += buf;
  }
  json += "},\n  \"speedup\": {";
  // fast vs reference at the largest N, per test.
  bool first = true;
  for (const Series& ref : analysis) {
    if (ref.path != "reference") continue;
    for (const Series& fast : analysis) {
      if (fast.path != "fast" || fast.test != ref.test) continue;
      std::snprintf(buf, sizeof buf, "%s\"%s_n%d\": %.1f", first ? "" : ", ",
                    ref.test.c_str(), ref.ns_per_op.back().first,
                    ref.ns_per_op.back().second / fast.ns_per_op.back().second);
      json += buf;
      first = false;
    }
  }
  json += "},\n  \"service\": [\n";
  for (std::size_t i = 0; i < service.size(); ++i) {
    std::snprintf(buf, sizeof buf,
                  "    {\"dup\": %.2f, \"req_per_s\": %.0f, "
                  "\"cache_hit_rate\": %.3f}%s\n",
                  service[i].dup, service[i].req_per_s, service[i].hit_rate,
                  i + 1 == service.size() ? "" : ",");
    json += buf;
  }
  json += "  ],\n  \"latency_percentiles_ns\": [\n";
  for (std::size_t i = 0; i < percentiles.size(); ++i) {
    const Percentiles& p = percentiles[i];
    std::snprintf(buf, sizeof buf,
                  "    {\"series\": \"%s\", \"count\": %llu, \"p50\": %llu, "
                  "\"p95\": %llu, \"p99\": %llu}%s\n",
                  p.name.c_str(), static_cast<unsigned long long>(p.count),
                  static_cast<unsigned long long>(p.p50),
                  static_cast<unsigned long long>(p.p95),
                  static_cast<unsigned long long>(p.p99),
                  i + 1 == percentiles.size() ? "" : ",");
    json += buf;
  }
  json += "  ]\n}\n";
  return json;
}

}  // namespace

int main(int argc, char** argv) {
  std::string out_path = "BENCH_perf.json";
  bool quick = false;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (a == "--quick") {
      quick = true;
    } else if (a.rfind("--out=", 0) == 0) {
      out_path = a.substr(6);
    } else {
      std::fprintf(stderr,
                   "usage: bench_report [--out=BENCH_perf.json] [--quick]\n");
      return 2;
    }
  }

  const int reps = quick ? 3 : 7;
  const double min_rep_ns = quick ? 2e6 : 2e7;
  const std::size_t requests = quick ? 2000 : 10000;

  // Baseline series run with obs disabled: the committed BENCH_perf.json
  // predates src/obs/, and the CI guardrails below must keep judging the
  // bare kernels. The percentile pass re-enables it afterwards.
  obs::set_enabled(false);
  std::fprintf(stderr, "bench_report: measuring analysis kernels...\n");
  const auto analysis_series = run_analysis_benches(reps, min_rep_ns);
  std::fprintf(stderr, "bench_report: measuring batch throughput...\n");
  const auto service = run_service_bench(requests);
  std::fprintf(stderr, "bench_report: collecting latency percentiles...\n");
  const auto percentiles =
      run_percentile_pass(quick ? 500 : 5000, quick ? 500 : 2000);

  const std::string json = to_json(analysis_series, service, percentiles,
                                   quick);
  if (out_path == "-") {
    std::fputs(json.c_str(), stdout);
  } else {
    std::FILE* f = std::fopen(out_path.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "cannot write %s\n", out_path.c_str());
      return 1;
    }
    std::fputs(json.c_str(), f);
    std::fclose(f);
    std::fprintf(stderr, "bench_report: wrote %s\n", out_path.c_str());
    std::fputs(json.c_str(), stdout);
  }

  // Smoke guardrails: the fast GN2 path must beat the reference at N=64
  // and grow below cubic — CI fails loudly when a regression lands.
  for (const auto& s : analysis_series) {
    if (s.test != "gn2") continue;
    if (s.path == "fast" && s.exponent() > 2.6) {
      std::fprintf(stderr, "FAIL: fast GN2 exponent %.2f >= 2.6\n",
                   s.exponent());
      return 1;
    }
  }
  double ref64 = 0.0;
  double fast64 = 0.0;
  for (const auto& s : analysis_series) {
    if (s.test == "gn2" && s.path == "reference") ref64 = s.ns_per_op.back().second;
    if (s.test == "gn2" && s.path == "fast") fast64 = s.ns_per_op.back().second;
  }
  if (fast64 <= 0.0 || ref64 / fast64 < 5.0) {
    std::fprintf(stderr, "FAIL: fast GN2 speedup %.1fx < 5x at N=64\n",
                 fast64 > 0 ? ref64 / fast64 : 0.0);
    return 1;
  }
  return 0;
}

#include "layers.hpp"

#include <fstream>
#include <memory>
#include <optional>

#include "analysis/engine.hpp"
#include "obs/chrome_trace.hpp"
#include "proc.hpp"
#include "stats.hpp"
#include "svc/batch.hpp"
#include "svc/codec.hpp"
#include "svc/shard_cache.hpp"
#include "svc/shard_route.hpp"
#include "wire.hpp"

namespace perfbench {

namespace {

using reconf::svc::ShardCache;

/// The server's default total cache capacity (reconf_serve
/// --cache-capacity), split evenly across shards as AsyncServer does.
constexpr std::size_t kServerCacheCapacity = 65536;

/// Fresh per-shard caches, filled to capacity with keys no request uses:
/// the steady state of a long run, where every miss's insert evicts.
std::vector<std::unique_ptr<ShardCache>> full_caches() {
  std::vector<std::unique_ptr<ShardCache>> caches;
  const std::size_t per_shard = kServerCacheCapacity / kShards;
  for (unsigned s = 0; s < kShards; ++s) {
    caches.push_back(std::make_unique<ShardCache>(per_shard));
    for (std::size_t k = 0; k < per_shard; ++k) {
      caches.back()->insert(~(std::uint64_t{s} << 40 | k), {});
    }
  }
  return caches;
}

std::uint64_t total_evictions(
    const std::vector<std::unique_ptr<ShardCache>>& caches) {
  std::uint64_t n = 0;
  for (const auto& c : caches) n += c->stats().evictions;
  return n;
}

struct Outcome {
  bool accepted = false;
  std::string accepted_by;
  std::uint64_t hash = 0;
  bool hit = false;

  bool operator==(const Outcome&) const = default;
};

}  // namespace

const char* span_name(std::uint8_t kind) {
  static const char* const kNames[kSpanKinds] = {
      "request",          "svc.frame",  "svc.parse",        "svc.key",
      "svc.cache_lookup", "analysis.decide", "svc.cache_insert", "svc.format"};
  return kind < kSpanKinds ? kNames[kind] : "?";
}

std::vector<std::int64_t> self_times(const std::vector<Span>& spans) {
  std::vector<std::int64_t> self(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) self[i] = spans[i].dur_ns;
  for (const Span& s : spans) {
    if (s.parent >= 0) self[static_cast<std::size_t>(s.parent)] -= s.dur_ns;
  }
  return self;
}

namespace {

/// Records nothing: the untraced replay.
struct NoSpans {
  void begin(std::uint32_t) {}
  template <typename Call>
  void timed(std::uint8_t, Call&& call) {
    call();
  }
  void end() {}
};

/// One span per call, each a child of its request's span.
struct SpanRecorder {
  std::vector<Span>& spans;
  std::uint32_t request = 0;
  std::int32_t parent = -1;

  void begin(std::uint32_t i) {
    request = i;
    parent = static_cast<std::int32_t>(spans.size());
    spans.push_back({i, kRequest, -1, now_ns(), 0});
  }
  template <typename Call>
  void timed(std::uint8_t kind, Call&& call) {
    const std::int64_t t0 = now_ns();
    call();
    spans.push_back({request, kind, parent, t0, now_ns() - t0});
  }
  void end() {
    Span& s = spans[static_cast<std::size_t>(parent)];
    s.dur_ns = now_ns() - s.start_ns;
  }
};

/// The serving path of one line, call by call, as a shard worker and its io
/// thread run it: frame, parse, key, route, lookup, decide and insert on a
/// miss, format.
struct LineReplay {
  LineReplay(const reconf::analysis::AnalysisEngine& e,
             std::vector<std::unique_ptr<ShardCache>>& c)
      : engine(e), caches(c) {}

  const reconf::analysis::AnalysisEngine& engine;
  std::vector<std::unique_ptr<ShardCache>>& caches;
  reconf::svc::StreamFramer framer;
  std::string text;

  template <typename Recorder>
  Outcome replay(std::uint32_t i, const std::string& line, Recorder& rec) {
    namespace svc = reconf::svc;
    rec.begin(i);
    svc::LineStatus status;
    rec.timed(kFrame, [&] {
      framer.feed(line.data(), line.size());
      framer.next(text, status);
    });
    svc::BatchRequest request;
    rec.timed(kParse, [&] { request = svc::parse_request_line(text); });
    Outcome got;
    rec.timed(kKey, [&] {
      got.hash = svc::verdict_cache_key(request.taskset, request.device, engine);
    });
    ShardCache& cache = *caches[svc::shard_for_key(
        got.hash, static_cast<std::uint32_t>(caches.size()))];
    std::optional<svc::CachedVerdict> cached;
    rec.timed(kLookup, [&] { cached = cache.lookup(got.hash); });
    if (cached) {
      got.hit = true;
      got.accepted = cached->accepted;
      got.accepted_by = cached->accepted_by;
    } else {
      reconf::analysis::Decision d;
      rec.timed(kDecide, [&] { d = engine.decide(request.taskset, request.device); });
      got.accepted = d.accepted();
      got.accepted_by = std::string(d.accepted_by);
      rec.timed(kInsert, [&] { cache.insert(got.hash, {got.accepted, got.accepted_by}); });
    }
    rec.timed(kFormat, [&] {
      svc::BatchVerdict v;
      v.id = request.id;
      v.accepted = got.accepted;
      v.accepted_by = got.accepted_by;
      v.hash = got.hash;
      v.cache_hit = got.hit;
      text = svc::format_verdict_line(v, &request.taskset);
    });
    rec.end();
    return got;
  }
};

}  // namespace

LayerReport run_layers(const std::vector<std::string>& lines,
                       const std::string& trace_path) {
  namespace svc = reconf::svc;
  LayerReport report;
  report.requests = lines.size();
  const reconf::analysis::AnalysisEngine engine(svc::BatchOptions::default_request());

  // Per-request in-process time through evaluate_with_engine — the server's
  // own path, obs counters included — and that call alone. This pass also
  // warms the code and the allocator for the two timed replays below.
  std::vector<Outcome> expected;
  expected.reserve(lines.size());
  {
    auto caches = full_caches();
    svc::StreamFramer framer;
    std::string text;
    svc::LineStatus status;
    std::vector<double> evaluate_ns;
    evaluate_ns.reserve(lines.size());
    report.inproc_ns.reserve(lines.size());
    double bytes = 0.0;
    for (const std::string& line : lines) {
      bytes += static_cast<double>(line.size());
      const std::int64_t t0 = now_ns();
      framer.feed(line.data(), line.size());
      if (!framer.next(text, status)) {
        report.error = "a request line did not frame";
        return report;
      }
      const svc::BatchRequest request = svc::parse_request_line(text);
      const std::uint64_t key = svc::verdict_cache_key(request.taskset, request.device, engine);
      ShardCache& cache = *caches[svc::shard_for_key(key, kShards)];
      const std::int64_t t1 = now_ns();
      svc::BatchVerdict v = svc::evaluate_with_engine(engine, request, &cache);
      const std::int64_t t2 = now_ns();
      text = svc::format_verdict_line(v, &request.taskset);
      report.inproc_ns.push_back(static_cast<double>(now_ns() - t0));
      evaluate_ns.push_back(static_cast<double>(t2 - t1));
      expected.push_back({v.accepted, v.accepted_by, v.hash, v.cache_hit});
    }
    report.evaluate_p50_ns = percentile(evaluate_ns, 50);
    report.request_bytes = lines.empty() ? 0.0 : bytes / static_cast<double>(lines.size());
  }

  // The untraced and the traced replay of the same calls, twice each in
  // turn; each keeps its faster round (the traced pass's spans are those of
  // its last round). Their ratio is trace.overhead_ratio.
  std::int64_t untraced_ns = 0;
  std::int64_t traced_ns = 0;
  std::vector<Span> spans;
  std::int64_t base = 0;
  std::uint64_t hits = 0;
  std::uint64_t evictions = 0;
  std::uint64_t analyzer_runs = 0;
  auto runs_of = [&] {
    std::uint64_t n = 0;
    for (const auto& [id, s] : engine.stats()) n += s.runs;
    return n;
  };
  for (int round = 0; round < 2; ++round) {
    {
      auto caches = full_caches();
      LineReplay replay(engine, caches);
      NoSpans none;
      const std::int64_t t0 = now_ns();
      for (std::uint32_t i = 0; i < lines.size(); ++i) replay.replay(i, lines[i], none);
      const std::int64_t took = now_ns() - t0;
      untraced_ns = round == 0 ? took : std::min(untraced_ns, took);
    }
    auto caches = full_caches();
    LineReplay replay(engine, caches);
    spans.clear();
    spans.reserve(lines.size() * 8);
    SpanRecorder recorder{spans};
    hits = 0;
    report.rejected = report.accepted_by_dp = report.accepted_by_gn1 =
        report.accepted_by_gn2 = report.mismatches = 0;
    const std::uint64_t evictions_before = total_evictions(caches);
    const std::uint64_t runs_before = runs_of();
    base = now_ns();
    for (std::uint32_t i = 0; i < lines.size(); ++i) {
      const Outcome got = replay.replay(i, lines[i], recorder);
      if (!(got == expected[i])) ++report.mismatches;
      if (got.hit) {
        ++hits;
      } else if (!got.accepted) {
        ++report.rejected;
      } else if (got.accepted_by == "dp") {
        ++report.accepted_by_dp;
      } else if (got.accepted_by == "gn1") {
        ++report.accepted_by_gn1;
      } else if (got.accepted_by == "gn2") {
        ++report.accepted_by_gn2;
      }
    }
    const std::int64_t took = now_ns() - base;
    traced_ns = round == 0 ? took : std::min(traced_ns, took);
    report.decides = lines.size() - hits;
    evictions = total_evictions(caches) - evictions_before;
    analyzer_runs = runs_of() - runs_before;
  }
  if (!trace_path.empty()) {
    reconf::obs::ChromeTraceWriter writer;
    for (const Span& s : spans) {
      writer.complete_event(span_name(s.kind), s.kind == kRequest ? "harness" : "layer",
                            static_cast<double>(s.start_ns - base) * 1e-3,
                            static_cast<double>(s.dur_ns) * 1e-3, 1,
                            "{\"request\":" + std::to_string(s.request) + "}");
    }
    std::ofstream(trace_path) << writer.json();
  }

  // Per-kind call medians and per-layer self time.
  const std::vector<std::int64_t> self = self_times(spans);
  std::vector<std::vector<double>> by_kind(kSpanKinds);
  double svc_self = 0.0;
  double analysis_self = 0.0;
  double harness_self = 0.0;
  for (std::size_t k = 0; k < spans.size(); ++k) {
    by_kind[spans[k].kind].push_back(static_cast<double>(spans[k].dur_ns));
    const auto s = static_cast<double>(self[k]);
    if (spans[k].kind == kRequest) {
      harness_self += s;
    } else if (spans[k].kind == kDecide) {
      analysis_self += s;
    } else {
      svc_self += s;
    }
  }
  for (int k = 0; k < kSpanKinds; ++k) {
    report.call_p50_ns[k] = percentile(by_kind[k], 50);
  }
  report.decide_p99_ns = percentile(by_kind[kDecide], 99);
  const double n = std::max<double>(1.0, static_cast<double>(lines.size()));
  report.svc_self_ns = svc_self / n;
  report.analysis_self_ns = analysis_self / n;
  report.harness_self_ns = harness_self / n;
  report.hit_ratio = static_cast<double>(hits) / n;
  report.evictions_per_op = static_cast<double>(evictions) / n;
  report.analyzers_per_op =
      report.decides == 0 ? 0.0
                          : static_cast<double>(analyzer_runs) /
                                static_cast<double>(report.decides);
  report.useful_work_ratio =
      analyzer_runs == 0 ? 0.0
                         : static_cast<double>(report.decides) /
                               static_cast<double>(analyzer_runs);
  report.overhead_ratio =
      untraced_ns > 0 ? static_cast<double>(traced_ns) / static_cast<double>(untraced_ns)
                      : 0.0;
  return report;
}

}  // namespace perfbench

#pragma once

// In-process layer timing: replays a workload's request lines through the
// serving tier's public functions (StreamFramer, parse_request_line,
// verdict_cache_key, ShardCache, AnalysisEngine::decide,
// format_verdict_line) from outside, routed by shard_for_key over one
// ShardCache per server shard so the hit pattern matches the server's.

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

/// One timed call. `parent` indexes the enclosing span (-1 for a request).
struct Span {
  std::uint32_t request = 0;
  std::uint8_t kind = 0;
  std::int32_t parent = -1;
  std::int64_t start_ns = 0;
  std::int64_t dur_ns = 0;
};

enum SpanKind : std::uint8_t {
  kRequest,
  kFrame,
  kParse,
  kKey,
  kLookup,
  kDecide,
  kInsert,
  kFormat,
  kSpanKinds,
};

[[nodiscard]] const char* span_name(std::uint8_t kind);

/// Self time of every span: its duration minus the part its children
/// cover (children never overlap one another here).
[[nodiscard]] std::vector<std::int64_t> self_times(const std::vector<Span>& spans);

struct LayerReport {
  std::size_t requests = 0;
  /// Median ns of one call, by span kind (0 when the call never ran).
  double call_p50_ns[kSpanKinds] = {};
  double decide_p99_ns = 0.0;
  /// Mean self ns per request, by layer.
  double svc_self_ns = 0.0;
  double analysis_self_ns = 0.0;
  double harness_self_ns = 0.0;
  double evaluate_p50_ns = 0.0;  ///< one evaluate_with_engine call
  double request_bytes = 0.0;
  double hit_ratio = 0.0;
  double evictions_per_op = 0.0;
  double analyzers_per_op = 0.0;
  double useful_work_ratio = 0.0;
  std::uint64_t decides = 0;
  std::uint64_t accepted_by_dp = 0;
  std::uint64_t accepted_by_gn1 = 0;
  std::uint64_t accepted_by_gn2 = 0;
  std::uint64_t rejected = 0;
  double overhead_ratio = 0.0;  ///< traced / untraced replay time
  /// Untraced in-process ns of each request (frame .. format), line order.
  std::vector<double> inproc_ns;
  std::uint64_t mismatches = 0;  ///< traced vs untraced verdict disagreements
  std::string error;
};

/// Replays `lines` (each ending in '\n') three times over fresh, full
/// caches: untimed-per-request (the overhead baseline), per-request timed
/// through evaluate_with_engine, and traced per call. Writes the traced
/// pass's spans as Chrome trace JSON to `trace_path` (skipped when empty).
[[nodiscard]] LayerReport run_layers(const std::vector<std::string>& lines,
                                     const std::string& trace_path);

}  // namespace perfbench

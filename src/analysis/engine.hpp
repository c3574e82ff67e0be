#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "analysis/options.hpp"
#include "analysis/report.hpp"
#include "common/types.hpp"
#include "partition/partitioned.hpp"
#include "task/taskset.hpp"

namespace reconf::obs {
class Counter;
class Histogram;
}  // namespace reconf::obs

namespace reconf::analysis {

namespace detail {
struct AnalysisScratch;
}  // namespace detail

class AnalyzerRegistry;

/// Schedulers a verdict can be claimed for. Soundness is per scheduler: a
/// sufficient test proves schedulability only under schedulers it is sound
/// for (the paper's caveat: GN1 holds for EDF-NF but not EDF-FkF).
enum class Scheduler {
  kEdfNf,           ///< global EDF, next-fit skipping (work-conserving)
  kEdfFkF,          ///< global EDF, first-k-first (blocking)
  kPartitionedEdf,  ///< fixed column partitions, uniprocessor EDF inside
};

[[nodiscard]] const char* to_string(Scheduler scheduler) noexcept;

/// The most general deadline model a test handles without refusing.
enum class DeadlineModel {
  kImplicit,     ///< requires D = T (e.g. DP, which descends from GFB)
  kConstrained,  ///< requires D ≤ T
  kArbitrary,    ///< handles any D, including post-period deadlines
};

[[nodiscard]] const char* to_string(DeadlineModel model) noexcept;

/// Asymptotic cost over the task count N — the engine's cheapest-first
/// execution order sorts by this, so a linear test gets the chance to
/// accept (and early-exit) before an O(N³) one ever runs.
enum class CostClass {
  kLinear,     ///< O(N)  — one pass (DP, GFB)
  kQuadratic,  ///< O(N²) — per-task interference sums (GN1, BCL, partition)
  kCubic,      ///< O(N³) — λ-candidate scans (GN2, BAK2)
};

[[nodiscard]] const char* to_string(CostClass cost) noexcept;

/// Capability metadata every Analyzer declares: which schedulers its
/// acceptance is sound for, the deadline model it supports, and its cost
/// class. The engine derives scheduler restrictions from this metadata
/// (an EDF-FkF request simply filters out analyzers not FkF-sound) instead
/// of hard-wiring per-test bool flags at every call site.
struct Capabilities {
  bool sound_edf_nf = false;
  bool sound_edf_fkf = false;
  bool sound_partitioned = false;
  DeadlineModel deadlines = DeadlineModel::kArbitrary;
  CostClass cost = CostClass::kLinear;
};

/// Whether an acceptance from a test with these capabilities proves
/// schedulability under `scheduler`.
[[nodiscard]] constexpr bool sound_for(const Capabilities& caps,
                                       Scheduler scheduler) noexcept {
  switch (scheduler) {
    case Scheduler::kEdfNf: return caps.sound_edf_nf;
    case Scheduler::kEdfFkF: return caps.sound_edf_fkf;
    case Scheduler::kPartitionedEdf: return caps.sound_partitioned;
  }
  return false;
}

/// Union of every per-test option struct; each analyzer reads only its own
/// slice (and fingerprints only that slice, so cache keys do not churn when
/// an unrelated test's knob moves).
struct AnalyzerConfig {
  DpOptions dp;
  Gn1Options gn1;
  Gn2Options gn2;
  partition::PartitionConfig partition;
};

/// One pluggable schedulability test. Implementations must be stateless and
/// thread-safe: `run` is called concurrently on distinct tasksets by the
/// serving tier's shard workers and the sweep harness.
///
/// See README.md ("Writing a new Analyzer") for a worked example.
class Analyzer {
 public:
  virtual ~Analyzer() = default;

  /// Registry key, lowercase kebab-case (e.g. "dp", "mp-bak2"). Stable —
  /// it appears in NDJSON requests, CLI flags and cache fingerprints.
  [[nodiscard]] virtual std::string_view id() const noexcept = 0;

  /// One-line human description for listings and error messages.
  [[nodiscard]] virtual std::string_view description() const noexcept = 0;

  [[nodiscard]] virtual Capabilities capabilities() const noexcept = 0;

  /// Evaluates the test. Must be pure: the report depends only on the
  /// arguments. Inapplicable inputs (wrong deadline model, non-unit areas
  /// for the mp cross-checks) yield kInconclusive with an explanatory note,
  /// never an unsound acceptance.
  [[nodiscard]] virtual TestReport run(const TaskSet& ts, Device device,
                                       const AnalyzerConfig& config) const = 0;

  /// Fingerprint of the slice of `config` this analyzer reads — every knob
  /// that can change its verdict. Folded into cache keys: two configs with
  /// equal fingerprints for every selected analyzer must produce identical
  /// verdicts. Default: 0 (no options).
  [[nodiscard]] virtual std::uint64_t options_fingerprint(
      const AnalyzerConfig& config) const noexcept;

  /// True when run_fast answers through an allocation-free SoA kernel
  /// instead of the default adapter (which runs run() and summarizes).
  [[nodiscard]] virtual bool has_fast_path() const noexcept { return false; }

  /// Fast evaluation: verdict + first failing task, no diagnostics.
  /// `scratch` must already be bound to `ts` (AnalysisScratch::build); the
  /// engine binds its thread-local arena once per verdict and shares it
  /// across analyzers. Must agree with run() on verdict and
  /// first_failing_task for every input (the fastpath parity suite enforces
  /// this for the built-in kernels). Default: adapts run(), allocating.
  [[nodiscard]] virtual FastVerdict run_fast(detail::AnalysisScratch& scratch,
                                             const TaskSet& ts, Device device,
                                             const AnalyzerConfig& config)
      const;
};

/// Thrown when a requested analyzer id is not registered. The message lists
/// every registered id so callers (CLI, codec) can relay an actionable
/// error.
class UnknownAnalyzerError : public std::invalid_argument {
 public:
  UnknownAnalyzerError(const std::string& id, const std::string& registered);

  [[nodiscard]] const std::string& id() const noexcept { return id_; }

 private:
  std::string id_;
};

/// Everything that parameterizes one analysis run: which tests, under which
/// scheduler restriction, with which options, and how eagerly to stop.
struct AnalysisRequest {
  /// Registry ids to run. Defaults to the paper's Section 6 lineup.
  /// Duplicates are ignored; an empty list builds an engine that runs
  /// nothing and answers kInconclusive.
  std::vector<std::string> tests{"dp", "gn1", "gn2"};

  /// When set, only analyzers whose capabilities are sound for this
  /// scheduler are kept (the registry-era spelling of the old
  /// `for_fkf` bool: kEdfFkF drops GN1/BCL/BAK1). Unset = no restriction.
  std::optional<Scheduler> scheduler;

  AnalyzerConfig config;

  /// Stop after the first acceptance (sufficient tests are a union — one
  /// accept decides). Skipped analyzers still appear in the report with
  /// ran == false. The verdict and accepted_by are unaffected because
  /// execution order is deterministic, so early exit is safe to flip for
  /// throughput without invalidating cached verdicts.
  bool early_exit = false;

  /// Record per-analyzer wall time. Off for tight sweep loops where two
  /// clock reads per linear-time test would show up in the profile.
  bool measure = true;

  /// Full per-task diagnostics (default). When false — fast mode — every
  /// analyzer with a fast path answers through the allocation-free SoA
  /// kernels: run() synthesizes minimal TestReports (verdict and
  /// first_failing_task only; test_name is the registry id, per_task and
  /// note stay empty) and decide() allocates nothing at all.
  ///
  /// Verdict contract across modes: every branch decision and λ filter is
  /// taken with the same exact rational comparisons in both paths; the GN2
  /// kernel regroups the floating-point sums (aggregate partial sums
  /// instead of task-order accumulation), a ~1e-13 perturbation that the
  /// ε-guarded DoublePolicy comparisons absorb — a flip would need an
  /// input tuned to within ~1e-13 of the 1e-9 guard band, where accepting
  /// and rejecting are both sound readings of the theorem's strict
  /// inequality. The fastpath parity suite enforces identical verdict,
  /// accepted_by, first_failing_task and GN2 λ/condition across a
  /// randomized corpus. Like early_exit and measure, this knob is
  /// excluded from the fingerprint and cached verdicts are shared across
  /// modes.
  bool diagnostics = true;
};

/// The serving configuration: paper trio, cheapest-first early exit, no
/// timing, no diagnostics (SoA fast path). What every accepted()-only hot
/// path (sweeps, width scans, the batch default) wants.
[[nodiscard]] AnalysisRequest fast_any_request();

/// A single-analyzer spelling of the same fast configuration — one test id,
/// no timing, no diagnostics. The shape the perf benches (bench_perf,
/// bench_report) measure each kernel through, shared so both always
/// benchmark the identical request.
[[nodiscard]] AnalysisRequest fast_single_request(std::string test);

/// Allocation-free result of AnalysisEngine::decide — the union verdict and
/// which analyzer decided it. `accepted_by` points at the accepting
/// analyzer's static id (empty when not accepted) and stays valid for the
/// registry's lifetime.
struct Decision {
  Verdict verdict = Verdict::kInconclusive;
  std::string_view accepted_by;

  [[nodiscard]] bool accepted() const noexcept {
    return verdict == Verdict::kSchedulable;
  }
};

/// Per-analyzer slice of one engine run, in execution order.
struct AnalyzerOutcome {
  std::string id;
  bool ran = false;       ///< false when early-exit skipped this analyzer
  TestReport report;      ///< meaningful only when ran
  double seconds = 0.0;   ///< wall time of run(); 0 when !ran or !measure
};

/// Result of AnalysisEngine::run — the union verdict plus one outcome per
/// selected analyzer.
struct AnalysisReport {
  Verdict verdict = Verdict::kInconclusive;
  std::vector<AnalyzerOutcome> outcomes;

  [[nodiscard]] bool accepted() const noexcept {
    return verdict == Verdict::kSchedulable;
  }
  /// Id of the first accepting analyzer in execution order, or empty.
  [[nodiscard]] std::string accepted_by() const;
  /// The outcome for `id`, or nullptr when not selected.
  [[nodiscard]] const AnalyzerOutcome* outcome(std::string_view id) const;
  /// The TestReport for `id`, or nullptr when not selected or not run.
  [[nodiscard]] const TestReport* report_for(std::string_view id) const;
};

/// Cumulative per-analyzer counters over an engine's lifetime.
struct AnalyzerStats {
  std::uint64_t runs = 0;
  std::uint64_t accepts = 0;
  double seconds = 0.0;
};

/// A resolved, immutable analysis pipeline: ids are looked up in the
/// registry once, the scheduler capability filter is applied once, and the
/// execution order (cheapest cost class first, id as tie-break) plus the
/// configuration fingerprint are fixed at construction. `run` is then pure
/// and thread-safe — one engine can serve every worker of a thread pool.
class AnalysisEngine {
 public:
  /// Resolves `request` against `registry`. Throws UnknownAnalyzerError on
  /// an unregistered id (message lists the registered ones).
  explicit AnalysisEngine(
      AnalysisRequest request,
      const AnalyzerRegistry& registry = default_registry());

  AnalysisEngine(AnalysisEngine&&) noexcept = default;
  AnalysisEngine& operator=(AnalysisEngine&&) noexcept = default;

  /// Runs the selected analyzers in execution order. Verdict and
  /// accepted_by depend only on (taskset, device, fingerprint()) — never on
  /// early_exit, measure, diagnostics, or thread interleaving.
  [[nodiscard]] AnalysisReport run(const TaskSet& ts, Device device) const;

  /// The verdict-only hot path: evaluates analyzers in execution order via
  /// their fast paths over a thread-local SoA scratch, stopping at the
  /// first acceptance (always — the union verdict cannot change). Returns
  /// the same verdict and accepting analyzer as run() for every input, with
  /// zero heap allocation per call once the calling thread's arena is warm
  /// (analyzers without a fast path fall back to run() internally and do
  /// allocate). Stats accumulate as for run() with early_exit — analyzers
  /// skipped after the deciding acceptance are not counted as runs.
  [[nodiscard]] Decision decide(const TaskSet& ts, Device device) const;

  /// Fingerprint of the resolved configuration: the ordered analyzer ids
  /// and each analyzer's options fingerprint. Two engines with equal
  /// fingerprints produce identical verdicts for every input, so this (and
  /// only this) is what verdict-cache keys mix in. Diagnostics knobs
  /// (early_exit, measure) are deliberately excluded.
  [[nodiscard]] std::uint64_t fingerprint() const noexcept {
    return fingerprint_;
  }

  /// Selected analyzer ids in execution order (post filter, post sort).
  [[nodiscard]] std::vector<std::string> execution_order() const;

  /// The resolved analyzer at position `i` of the execution order — the
  /// differential oracle iterates these to pair each AnalyzerOutcome with
  /// the capability metadata its adjudication depends on. Valid for the
  /// backing registry's lifetime.
  [[nodiscard]] const Analyzer& analyzer_at(std::size_t i) const {
    RECONF_EXPECTS(i < analyzers_.size());
    return *analyzers_[i];
  }

  [[nodiscard]] const AnalysisRequest& request() const noexcept {
    return request_;
  }
  [[nodiscard]] bool empty() const noexcept { return analyzers_.empty(); }

  /// Cumulative (runs, accepts, seconds) per analyzer id, execution order.
  [[nodiscard]] std::vector<std::pair<std::string, AnalyzerStats>> stats()
      const;

 private:
  struct StatsCell {
    std::atomic<std::uint64_t> runs{0};
    std::atomic<std::uint64_t> accepts{0};
    std::atomic<std::uint64_t> nanos{0};
  };

  /// Pre-resolved process-wide metric handles for one analyzer — resolved
  /// once at engine construction so run()/decide() pay one relaxed
  /// increment per verdict, never a registry lookup. Metrics are keyed by
  /// analyzer id, so every engine instance feeds the same counters (the
  /// registry accumulates across shard workers and sessions). Verdict
  /// classes: accept = kSchedulable; refuse = the analyzer declined the
  /// input model (diagnostics path only — the fast path cannot distinguish
  /// a refusal and counts it inconclusive); reject = kInconclusive with a
  /// named failing task; inconclusive = the rest.
  struct ObsCell {
    obs::Counter* accept = nullptr;
    obs::Counter* reject = nullptr;
    obs::Counter* refuse = nullptr;
    obs::Counter* inconclusive = nullptr;
    obs::Histogram* latency = nullptr;  ///< recorded only when measure
    /// Span name/category, resolved at construction so the hot loop never
    /// makes the id()/has_fast_path() virtual calls just to label a
    /// (usually inactive) span. The name view aliases the analyzer's static
    /// id storage. decide() always takes the fast kernel when one exists.
    std::string_view span_name;
    const char* fast_cat = "reference";
  };

  [[nodiscard]] static const AnalyzerRegistry& default_registry();

  AnalysisRequest request_;
  std::vector<const Analyzer*> analyzers_;  ///< execution order
  std::uint64_t fingerprint_ = 0;
  std::unique_ptr<StatsCell[]> stats_;  ///< one cell per analyzer
  std::vector<ObsCell> obs_;            ///< one cell per analyzer
};

}  // namespace reconf::analysis

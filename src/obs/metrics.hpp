#pragma once

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

/// reconf::obs — dependency-free observability: a process-wide registry of
/// named counters, gauges and fixed-bucket latency histograms, built so the
/// serving hot path (AnalysisEngine::decide, svc::evaluate_with_engine) pays
/// one relaxed atomic increment per event and nothing else.
///
/// Concurrency model: writers never take a lock. Counters and histograms
/// are sharded into cache-line-sized cells; each thread picks a fixed cell
/// from its thread index, so concurrent increments hit distinct cache lines
/// and a read aggregates all cells. Reads are racy-by-design snapshots
/// (monotonic counters can only under-report in-flight increments).
///
/// Kill switches:
///   * runtime  — set_enabled(false) (or env RECONF_OBS=0 at startup) turns
///     every write into a relaxed load + branch; bench_perf measures the
///     disabled decide() path against the committed baseline.
///   * compile  — building with -DRECONF_OBS_DISABLED compiles every write
///     to nothing; the registry and readers stay available so exposition
///     code builds unchanged.
///
/// Naming scheme (see README "Observability"): Prometheus-style
/// `reconf_<subsystem>_<quantity>[_total]{label="value",...}` — the full
/// string, labels included, is the registry key.
namespace reconf::obs {

namespace detail {
/// Constant-initialized so enabled() never pays a static-init guard; the
/// env override (RECONF_OBS=0) is applied by a static initializer in
/// metrics.cpp before main().
extern std::atomic<bool> g_metrics_enabled;

/// Stable per-thread cell index shared by every sharded metric.
[[nodiscard]] std::size_t thread_cell_index() noexcept;
}  // namespace detail

/// Runtime kill switch. Default: enabled, unless the environment variable
/// RECONF_OBS is "0"/"off"/"false" at process start.
[[nodiscard]] inline bool enabled() noexcept {
#ifdef RECONF_OBS_DISABLED
  return false;
#else
  return detail::g_metrics_enabled.load(std::memory_order_relaxed);
#endif
}

void set_enabled(bool on) noexcept;

/// Monotonic counter, sharded per thread. inc() is wait-free: one relaxed
/// fetch_add on this thread's cell.
class Counter {
 public:
  static constexpr std::size_t kCells = 16;  // power of two

  void inc(std::uint64_t n = 1) noexcept {
#ifdef RECONF_OBS_DISABLED
    (void)n;
#else
    if (!enabled()) return;
    cells_[detail::thread_cell_index() & (kCells - 1)].v.fetch_add(
        n, std::memory_order_relaxed);
#endif
  }

  /// Sum over all cells — a racy snapshot, monotone between calls.
  [[nodiscard]] std::uint64_t value() const noexcept {
    std::uint64_t total = 0;
    for (const Cell& c : cells_) total += c.v.load(std::memory_order_relaxed);
    return total;
  }

 private:
  struct alignas(64) Cell {
    std::atomic<std::uint64_t> v{0};
  };
  std::array<Cell, kCells> cells_{};
};

/// Last-writer-wins instantaneous value (queue depth, hit rate, imbalance).
/// Double-valued so ratios and rates need no fixed-point convention;
/// add() is a CAS loop, set()/value() are single atomic ops.
class Gauge {
 public:
  void set(double v) noexcept {
#ifndef RECONF_OBS_DISABLED
    if (enabled()) v_.store(v, std::memory_order_relaxed);
#else
    (void)v;
#endif
  }

  void add(double d) noexcept {
#ifndef RECONF_OBS_DISABLED
    if (!enabled()) return;
    double cur = v_.load(std::memory_order_relaxed);
    while (!v_.compare_exchange_weak(cur, cur + d,
                                     std::memory_order_relaxed)) {
    }
#else
    (void)d;
#endif
  }

  [[nodiscard]] double value() const noexcept {
    return v_.load(std::memory_order_relaxed);
  }

 private:
  std::atomic<double> v_{0.0};
};

/// Aggregated histogram state at one point in time.
struct HistogramSnapshot {
  std::vector<std::uint64_t> bounds;        ///< upper bounds, ascending
  std::vector<std::uint64_t> bucket_counts; ///< bounds.size() + 1 (overflow)
  std::uint64_t count = 0;
  std::uint64_t sum = 0;
  std::uint64_t max = 0;

  /// The q-quantile (q in [0, 1]) as the upper bound of the bucket holding
  /// the rank-⌈q·count⌉ sample (rank clamped to [1, count]) — exact with
  /// respect to the bucket boundaries: the true sample is ≤ the returned
  /// bound and > the previous one. The overflow bucket reports the maximum
  /// recorded value. Returns 0 when empty.
  [[nodiscard]] std::uint64_t percentile(double q) const noexcept;

  [[nodiscard]] double mean() const noexcept {
    return count == 0 ? 0.0
                      : static_cast<double>(sum) / static_cast<double>(count);
  }
};

/// Fixed-bucket histogram of non-negative integer samples (latencies in
/// nanoseconds, by convention), sharded per thread like Counter. record()
/// is one binary search over the bounds plus two relaxed adds.
class Histogram {
 public:
  static constexpr std::size_t kCells = 8;  // power of two

  /// `bounds`: strictly increasing upper bounds; samples > bounds.back()
  /// land in the overflow bucket. Empty = default_latency_bounds().
  explicit Histogram(std::vector<std::uint64_t> bounds = {});

  void record(std::uint64_t value) noexcept;

  [[nodiscard]] HistogramSnapshot snapshot() const;
  [[nodiscard]] std::uint64_t count() const noexcept;
  [[nodiscard]] std::uint64_t percentile(double q) const {
    return snapshot().percentile(q);
  }
  [[nodiscard]] const std::vector<std::uint64_t>& bounds() const noexcept {
    return bounds_;
  }

  /// 1–2–5 log decades from 10 ns to 10 s — the latency ladder every
  /// `*_ns` histogram uses unless it names its own bounds.
  [[nodiscard]] static std::vector<std::uint64_t> default_latency_bounds();

 private:
  struct Cell {
    explicit Cell(std::size_t buckets) : counts(buckets) {}
    std::vector<std::atomic<std::uint64_t>> counts;
    alignas(64) std::atomic<std::uint64_t> sum{0};
    std::atomic<std::uint64_t> max{0};
  };

  std::vector<std::uint64_t> bounds_;
  std::vector<std::unique_ptr<Cell>> cells_;
};

/// Process-wide, string-keyed directory of metrics. Get-or-create: the
/// first request for a name materializes the metric, later requests return
/// the same object, so callers resolve handles once (at engine/pool
/// construction) and write lock-free ever after. Pointers stay valid for
/// the registry's lifetime. Requesting a name as two different kinds
/// throws std::invalid_argument — silent aliasing would corrupt both.
///
/// A default-constructed registry is empty (tests); instance() is the
/// process-wide one every production call site uses.
class MetricsRegistry {
 public:
  MetricsRegistry() = default;

  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  [[nodiscard]] static MetricsRegistry& instance();

  [[nodiscard]] Counter& counter(const std::string& name);
  [[nodiscard]] Gauge& gauge(const std::string& name);
  /// `bounds` applies only on first creation (empty = latency default);
  /// later requests return the existing histogram regardless of bounds.
  [[nodiscard]] Histogram& histogram(const std::string& name,
                                     std::vector<std::uint64_t> bounds = {});

  /// Prometheus text exposition format: every counter/gauge as one sample
  /// line, every histogram as cumulative `_bucket{le=...}` lines plus
  /// `_sum`/`_count`. Deterministic (sorted by name).
  [[nodiscard]] std::string prometheus_text() const;

  /// One JSON object (no trailing newline):
  ///   {"counters":{name:value,...},"gauges":{...},
  ///    "histograms":{name:{"count":..,"sum":..,"mean":..,
  ///                        "p50":..,"p95":..,"p99":..,"max":..},...}}
  /// The NDJSON `stats` response embeds this verbatim.
  [[nodiscard]] std::string json_snapshot() const;

 private:
  mutable std::mutex mutex_;
  std::map<std::string, std::unique_ptr<Counter>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>> gauges_;
  std::map<std::string, std::unique_ptr<Histogram>> histograms_;
};

}  // namespace reconf::obs

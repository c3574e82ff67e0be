#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <list>
#include <optional>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

namespace reconf::svc {

/// The cacheable part of an engine verdict: everything the admission path
/// needs to answer a repeated request without re-running the tests. The full
/// per-analyzer diagnostics are deliberately not cached — they are large,
/// and a caller that wants them re-analyzes (see
/// AdmissionSession::try_admit).
struct CachedVerdict {
  bool accepted = false;
  /// Id of the first accepting analyzer ("dp"/"gn1"/…), empty on reject.
  std::string accepted_by;
};

/// Monotonic counters for one shard, or aggregated over all shards
/// (net::AsyncServer::cache_stats() vs shard_cache_stats()).
struct CacheStats {
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t insertions = 0;
  std::uint64_t evictions = 0;
  /// Resident entries at snapshot time (not monotonic).
  std::size_t entries = 0;

  [[nodiscard]] std::uint64_t lookups() const noexcept {
    return hits + misses;
  }

  [[nodiscard]] double hit_rate() const noexcept {
    const std::uint64_t total = hits + misses;
    return total == 0 ? 0.0 : static_cast<double>(hits) /
                                  static_cast<double>(total);
  }
};

/// Single-owner, contention-free LRU verdict cache keyed by
/// `svc::verdict_cache_key` values: the per-shard partition of the serving
/// tier. One shard worker owns one ShardCache exclusively; lookup/insert
/// take no locks and touch no shared state. Correctness of the partitioning
/// is the router's job (svc/shard_route.hpp): every key is routed to
/// exactly one shard, so two workers can never race on the same entry by
/// construction. Outside the server (AdmissionSession, the runtime's
/// admission gate) a ShardCache is likewise owned by one thread.
///
/// The statistics counters are relaxed atomics — the only concession to
/// other threads, letting the stats surface sample hit/miss/entry counts
/// live without stopping the worker. A relaxed increment on a cache line
/// nobody else writes costs the same as a plain add.
class ShardCache {
 public:
  explicit ShardCache(std::size_t capacity) : capacity_(capacity) {
    if (capacity_ > 0) index_.reserve(capacity_ * 2);
  }

  ShardCache(const ShardCache&) = delete;
  ShardCache& operator=(const ShardCache&) = delete;

  /// Owner-thread only. Returns the cached verdict and refreshes its
  /// recency, or nullopt.
  [[nodiscard]] std::optional<CachedVerdict> lookup(std::uint64_t key) {
    const auto it = index_.find(key);
    if (it == index_.end()) {
      misses_.fetch_add(1, std::memory_order_relaxed);
      return std::nullopt;
    }
    hits_.fetch_add(1, std::memory_order_relaxed);
    lru_.splice(lru_.begin(), lru_, it->second);  // refresh recency
    return it->second->second;
  }

  /// Owner-thread only. Inserts or refreshes `key`, evicting the least
  /// recently used entry when full. Capacity 0 disables the cache.
  void insert(std::uint64_t key, CachedVerdict verdict) {
    if (capacity_ == 0) return;
    const auto it = index_.find(key);
    if (it != index_.end()) {
      it->second->second = std::move(verdict);
      lru_.splice(lru_.begin(), lru_, it->second);
      return;
    }
    if (lru_.size() >= capacity_) {
      index_.erase(lru_.back().first);
      lru_.pop_back();
      evictions_.fetch_add(1, std::memory_order_relaxed);
    }
    lru_.emplace_front(key, std::move(verdict));
    index_.emplace(key, lru_.begin());
    insertions_.fetch_add(1, std::memory_order_relaxed);
    entries_.store(lru_.size(), std::memory_order_relaxed);
  }

  /// Safe from any thread: a racy-but-consistent counter snapshot.
  [[nodiscard]] CacheStats stats() const {
    CacheStats out;
    out.hits = hits_.load(std::memory_order_relaxed);
    out.misses = misses_.load(std::memory_order_relaxed);
    out.insertions = insertions_.load(std::memory_order_relaxed);
    out.evictions = evictions_.load(std::memory_order_relaxed);
    out.entries = entries_.load(std::memory_order_relaxed);
    return out;
  }

  [[nodiscard]] std::size_t capacity() const noexcept { return capacity_; }
  [[nodiscard]] bool enabled() const noexcept { return capacity_ > 0; }

  /// Owner-thread only (or worker quiesced — the snapshot path runs after
  /// drain). Resident entries from least to most recently used.
  [[nodiscard]] std::size_t size() const noexcept { return lru_.size(); }

  struct Entry {
    std::uint64_t key = 0;
    CachedVerdict verdict;
  };

  /// Owner-thread only / quiesced. Entries least-recent first — the order a
  /// capacity-limited restore wants to replay them in.
  [[nodiscard]] std::vector<Entry> entries_lru_to_mru() const {
    std::vector<Entry> out;
    out.reserve(lru_.size());
    for (auto it = lru_.rbegin(); it != lru_.rend(); ++it) {
      out.push_back({it->first, it->second});
    }
    return out;
  }

 private:
  std::size_t capacity_ = 0;
  /// Front = most recently used; the map points into this list.
  std::list<std::pair<std::uint64_t, CachedVerdict>> lru_;
  std::unordered_map<
      std::uint64_t,
      std::list<std::pair<std::uint64_t, CachedVerdict>>::iterator>
      index_;
  std::atomic<std::uint64_t> hits_{0};
  std::atomic<std::uint64_t> misses_{0};
  std::atomic<std::uint64_t> insertions_{0};
  std::atomic<std::uint64_t> evictions_{0};
  std::atomic<std::size_t> entries_{0};
};

/// Crash-safe snapshot of a fleet of per-shard caches (reconf_serve
/// `--cache-snapshot`): the cache contents, not the statistics, in a
/// versioned text format written to `path`.tmp and atomically renamed over
/// the target — a crash mid-write never corrupts a previous good snapshot.
///
///   reconf-verdict-cache v1
///   count <N>
///   <%016x key> <0|1 accepted> <accepted_by or "-">
///
/// The format is topology-free: entries carry no shard index, and are
/// written interleaved across shards by LRU rank from the least-recent end
/// (a global-recency approximation), so a capacity-limited restore keeps
/// the most recently used entries. Restore routes every key through
/// svc::shard_for_key into the CURRENT shard count, so a snapshot taken at
/// S shards restores correctly at S' shards, and replays entries through
/// insert() so capacity limits and statistics behave exactly as live
/// traffic. A truncated or malformed file is refused — returning false
/// with `error` set — rather than warming the caches with silently missing
/// entries. All functions require the workers to be quiesced (startup /
/// after drain).
bool save_shard_snapshot(const std::vector<ShardCache*>& shards,
                         const std::string& path,
                         std::string* error = nullptr);

bool load_shard_snapshot(const std::vector<ShardCache*>& shards,
                         const std::string& path,
                         std::size_t* restored = nullptr,
                         std::string* error = nullptr);

}  // namespace reconf::svc

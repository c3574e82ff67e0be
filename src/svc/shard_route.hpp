#pragma once

#include <cstdint>

namespace reconf::svc {

/// Consistent-hash routing of verdict-cache keys onto shard workers (jump
/// consistent hash, Lamping & Veach 2014). Unlike `key % shards` or
/// low-bit masking, growing or shrinking the shard count remaps only
/// ~1/shards of the key space — a cache snapshot taken
/// at S shards warm-restores into S' shards with most keys landing on the
/// shard that would own them under live traffic, and a rolling topology
/// change invalidates the minimum number of per-shard cache partitions.
///
/// `shards` must be >= 1; keys are expected pre-mixed (the canonical
/// taskset hash and the verdict cache key both already are).
[[nodiscard]] constexpr std::uint32_t shard_for_key(
    std::uint64_t key, std::uint32_t shards) noexcept {
  std::int64_t bucket = 0;
  std::int64_t next = 0;
  while (next < static_cast<std::int64_t>(shards)) {
    bucket = next;
    key = key * 2862933555777941757ULL + 1;
    next = static_cast<std::int64_t>(
        static_cast<double>(bucket + 1) *
        (static_cast<double>(1LL << 31) /
         static_cast<double>((key >> 33) + 1)));
  }
  return static_cast<std::uint32_t>(bucket);
}

}  // namespace reconf::svc

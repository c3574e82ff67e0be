#include "svc/shard_cache.hpp"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <sstream>

#include "svc/shard_route.hpp"

namespace reconf::svc {

namespace {

constexpr const char kSnapshotHeader[] = "reconf-verdict-cache v1";

/// One line of the v1 snapshot format.
struct SnapshotEntry {
  std::uint64_t key = 0;
  CachedVerdict verdict;
};

bool set_error(std::string* error, const std::string& what) {
  if (error != nullptr) *error = what;
  return false;
}

/// Writes `entries` (least-recent first) as a crash-safe v1 snapshot
/// (tmp + rename).
bool write_snapshot_entries(const std::string& path,
                            const std::vector<SnapshotEntry>& entries,
                            std::string* error) {
  std::string body;
  body.reserve(entries.size() * 24);
  for (const SnapshotEntry& e : entries) {
    char key_hex[17];
    std::snprintf(key_hex, sizeof key_hex, "%016llx",
                  static_cast<unsigned long long>(e.key));
    body += key_hex;
    body += e.verdict.accepted ? " 1 " : " 0 ";
    body += e.verdict.accepted_by.empty() ? "-" : e.verdict.accepted_by;
    body += '\n';
  }
  const std::string tmp = path + ".tmp";
  {
    std::ofstream out(tmp, std::ios::trunc);
    if (!out) return set_error(error, "cannot open " + tmp);
    out << kSnapshotHeader << "\n"
        << "count " << entries.size() << "\n"
        << body;
    out.flush();
    if (!out) return set_error(error, "write failed for " + tmp);
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::remove(tmp.c_str());
    return set_error(error, "rename to " + path + " failed");
  }
  return true;
}

/// Reads a v1 snapshot into `entries` (file order, least-recent first).
bool read_snapshot_entries(const std::string& path,
                           std::vector<SnapshotEntry>& entries,
                           std::string* error) {
  entries.clear();
  std::ifstream in(path);
  if (!in) return set_error(error, "cannot open " + path);
  std::string line;
  if (!std::getline(in, line) || line != kSnapshotHeader) {
    return set_error(error, path + ": not a verdict-cache snapshot");
  }
  std::size_t count = 0;
  if (!std::getline(in, line) ||
      std::sscanf(line.c_str(), "count %zu", &count) != 1) {
    return set_error(error, path + ": missing count header");
  }
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    std::istringstream fields(line);
    std::string key_hex;
    int accepted = 0;
    std::string accepted_by;
    if (!(fields >> key_hex >> accepted >> accepted_by) ||
        key_hex.size() != 16 || (accepted != 0 && accepted != 1)) {
      return set_error(error,
                       path + ": malformed snapshot line '" + line + "'");
    }
    std::uint64_t key = 0;
    if (std::sscanf(key_hex.c_str(), "%llx",
                    reinterpret_cast<unsigned long long*>(&key)) != 1) {
      return set_error(error, path + ": bad key '" + key_hex + "'");
    }
    entries.push_back(
        {key, CachedVerdict{accepted == 1,
                            accepted_by == "-" ? "" : accepted_by}});
  }
  if (entries.size() != count) {
    return set_error(error, path + ": truncated snapshot (" +
                                std::to_string(entries.size()) + " of " +
                                std::to_string(count) + " entries)");
  }
  return true;
}

}  // namespace

bool save_shard_snapshot(const std::vector<ShardCache*>& shards,
                         const std::string& path, std::string* error) {
  // Recency is only ordered within a shard, so interleaving the shards' LRU
  // lists rank-by-rank from the least-recent end is the best topology-free
  // global order available: a capacity-limited restore (under any
  // topology) keeps approximately the most recently used entries.
  std::vector<std::vector<ShardCache::Entry>> per_shard;
  per_shard.reserve(shards.size());
  std::size_t total = 0;
  std::size_t longest = 0;
  for (const ShardCache* cache : shards) {
    per_shard.push_back(cache->entries_lru_to_mru());
    total += per_shard.back().size();
    longest = std::max(longest, per_shard.back().size());
  }
  std::vector<SnapshotEntry> merged;
  merged.reserve(total);
  for (std::size_t rank = 0; rank < longest; ++rank) {
    for (const auto& v : per_shard) {
      if (rank < v.size()) merged.push_back({v[rank].key, v[rank].verdict});
    }
  }
  return write_snapshot_entries(path, merged, error);
}

bool load_shard_snapshot(const std::vector<ShardCache*>& shards,
                         const std::string& path, std::size_t* restored,
                         std::string* error) {
  if (restored != nullptr) *restored = 0;
  std::vector<SnapshotEntry> entries;
  if (!read_snapshot_entries(path, entries, error)) return false;
  // Route every key by the CURRENT shard count — never by whatever
  // topology the writer had. The jump hash keeps ~ (1 - S/S') of the keys
  // on their old shard when growing from S to S' shards, but correctness
  // never depends on that: the router is the single source of placement
  // for restore and live traffic alike.
  const auto n = static_cast<std::uint32_t>(shards.size());
  for (SnapshotEntry& e : entries) {
    shards[shard_for_key(e.key, n)]->insert(e.key, std::move(e.verdict));
  }
  if (restored != nullptr) *restored = entries.size();
  return true;
}

}  // namespace reconf::svc

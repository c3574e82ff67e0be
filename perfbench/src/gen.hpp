#pragma once

// Seeded request generators for the wire workloads. Request i of a workload
// is a pure function of (workload, seed, i): the generator, the verifier
// and the traced pass all rebuild the same taskset from the index, so no
// run has to hold its request stream in memory.

#include <cstdint>
#include <string>
#include <vector>

#include "common/types.hpp"
#include "task/task.hpp"

namespace perfbench {

/// splitmix64 — the harness's own stream, independent of the repo's RNGs
/// so a change to a library generator cannot move a workload.
[[nodiscard]] constexpr std::uint64_t mix(std::uint64_t x) noexcept {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

class Rng {
 public:
  explicit Rng(std::uint64_t seed) : state_(seed) {}
  std::uint64_t next() { return mix(state_++); }
  /// Uniform in [lo, hi].
  std::int64_t range(std::int64_t lo, std::int64_t hi) {
    return lo + static_cast<std::int64_t>(
                    next() % static_cast<std::uint64_t>(hi - lo + 1));
  }
  /// Uniform in [0, 1).
  double unit() { return static_cast<double>(next() >> 11) * 0x1.0p-53; }

 private:
  std::uint64_t state_;
};

enum class Family {
  kSmall,  ///< 3-task sets in the reconf_loadgen shape; DP decides
  kGn2,    ///< 32-task sets near U_S 50 on width 100; all three tests run
};

/// Size of the hot set of a workload with hot_pct > 0.
constexpr unsigned kHotKeys = 64;

struct WireSpec {
  Family family = Family::kSmall;
  unsigned hot_pct = 0;  ///< share of requests drawn from the hot set
};

/// A wire workload's request stream.
class RequestSource {
 public:
  RequestSource(WireSpec spec, std::uint64_t seed);

  /// Which taskset request i carries: an index into the hot set
  /// (< kHotKeys) or kHotKeys + a unique stream number.
  [[nodiscard]] std::uint64_t taskset_of(std::uint64_t i) const;

  /// The tasks of taskset `t` (as returned by taskset_of).
  [[nodiscard]] std::vector<reconf::Task> tasks(std::uint64_t t) const;

  [[nodiscard]] reconf::Device device() const { return reconf::Device{100}; }

  /// Appends request i as one NDJSON line ("id" = i) with its newline.
  void append_line(std::uint64_t i, std::string& out) const;

  [[nodiscard]] const WireSpec& spec() const noexcept { return spec_; }

 private:
  [[nodiscard]] std::string body(std::uint64_t t) const;

  WireSpec spec_;
  std::uint64_t seed_;
  std::uint64_t small_offset_;
  std::vector<std::string> hot_bodies_;
};

/// The tasks of one request as a wire line body (everything after the id):
/// `,"device":W,"tasks":[...]}`.
[[nodiscard]] std::string wire_body(const std::vector<reconf::Task>& tasks,
                                    reconf::Device device);

}  // namespace perfbench

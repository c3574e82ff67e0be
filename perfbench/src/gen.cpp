#include "gen.hpp"

#include <algorithm>
#include <charconv>
#include <cmath>

namespace perfbench {

namespace {

// Small family: the reconf_loadgen request shape. The first task's (C, A, D)
// walks a seeded bijection over 600 x 60 x 700 combinations, so every
// request index below 25.2M is a distinct taskset (a distinct cache key).
constexpr std::uint64_t kSmallWcets = 600;
constexpr std::uint64_t kSmallAreas = 60;
constexpr std::uint64_t kSmallDeadlines = 700;
constexpr std::uint64_t kSmallSpace = kSmallWcets * kSmallAreas * kSmallDeadlines;
constexpr std::uint64_t kSmallStride = 1'000'003;  // prime, coprime to the space

// Gn2 family: 32 implicit-deadline tasks of area 1..10 whose system
// utilization U_S = sum(A*C/T) is spread evenly over [kUsLow, kUsHigh] by a
// golden-ratio sequence. DP accepts about one set in ten in this band; GN1
// and GN2 run on the rest.
constexpr int kGn2Tasks = 32;
constexpr double kUsLow = 49.0;
constexpr double kUsHigh = 55.0;

// The hot set is a fixed catalogue shared by every seed, so hit ratio, shard
// skew and accept ratio compare across seeds; the seed picks the request
// order and the fresh sets.
constexpr std::uint64_t kHotSeed = 0x4057;

void append_uint(std::string& out, std::int64_t v) {
  char buf[24];
  const auto end = std::to_chars(buf, buf + sizeof buf, v).ptr;
  out.append(buf, end);
}

std::vector<reconf::Task> small_tasks(std::uint64_t g) {
  std::vector<reconf::Task> tasks(3);
  const auto c = static_cast<reconf::Ticks>(1 + g % kSmallWcets);
  const auto a = static_cast<reconf::Area>(1 + (g / kSmallWcets) % kSmallAreas);
  const auto d = static_cast<reconf::Ticks>(
      700 + (g / (kSmallWcets * kSmallAreas)) % kSmallDeadlines);
  tasks[0] = {c, d, d, a, {}};
  tasks[1] = {40, 500, 500, 7, {}};
  tasks[2] = {30, 900, 900, 5, {}};
  return tasks;
}

std::vector<reconf::Task> gn2_tasks(std::uint64_t stream, double us_target) {
  Rng rng(stream);
  std::vector<reconf::Task> tasks(kGn2Tasks);
  std::vector<double> weight(kGn2Tasks);
  double area_weight = 0.0;
  for (int j = 0; j < kGn2Tasks; ++j) {
    tasks[j].area = static_cast<reconf::Area>(rng.range(1, 10));
    tasks[j].period = rng.range(200, 2000);
    tasks[j].deadline = tasks[j].period;
    weight[j] = 0.05 + 0.95 * rng.unit();
    area_weight += weight[j] * static_cast<double>(tasks[j].area);
  }
  const double scale = us_target / area_weight;
  for (int j = 0; j < kGn2Tasks; ++j) {
    const double u = std::min(0.95, weight[j] * scale);
    tasks[j].wcet = std::max<reconf::Ticks>(
        1, std::llround(u * static_cast<double>(tasks[j].period)));
  }
  return tasks;
}

}  // namespace

RequestSource::RequestSource(WireSpec spec, std::uint64_t seed)
    : spec_(spec), seed_(seed), small_offset_(mix(seed ^ 0x5a11) % kSmallSpace) {
  for (std::uint64_t h = 0; h < (spec_.hot_pct > 0 ? kHotKeys : 0); ++h) {
    hot_bodies_.push_back(body(h));
  }
}

std::uint64_t RequestSource::taskset_of(std::uint64_t i) const {
  if (spec_.hot_pct > 0) {
    const std::uint64_t draw = mix(seed_ * 0x9e3779b97f4a7c15ULL + i);
    if (draw % 100 < spec_.hot_pct) return (draw >> 32) % kHotKeys;
  }
  return kHotKeys + i;
}

std::vector<reconf::Task> RequestSource::tasks(std::uint64_t t) const {
  if (spec_.family == Family::kSmall) {
    return small_tasks((t * kSmallStride + small_offset_) % kSmallSpace);
  }
  const bool hot = spec_.hot_pct > 0 && t < kHotKeys;
  const std::uint64_t seed = hot ? kHotSeed : seed_;
  const double phase = static_cast<double>(mix(seed) >> 11) * 0x1.0p-53;
  double frac = phase + static_cast<double>(t) * 0.6180339887498949;
  frac -= std::floor(frac);
  return gn2_tasks(mix(seed ^ 0x6e32) + t * 0x632be59bd9b4e019ULL,
                   kUsLow + (kUsHigh - kUsLow) * frac);
}

std::string RequestSource::body(std::uint64_t t) const {
  return wire_body(tasks(t), device());
}

void RequestSource::append_line(std::uint64_t i, std::string& out) const {
  out += "{\"id\":\"";
  append_uint(out, static_cast<std::int64_t>(i));
  out += '"';
  const std::uint64_t t = taskset_of(i);
  if (t < hot_bodies_.size()) {
    out += hot_bodies_[t];
  } else {
    out += body(t);
  }
  out += '\n';
}

std::string wire_body(const std::vector<reconf::Task>& tasks,
                      reconf::Device device) {
  std::string out = ",\"device\":";
  append_uint(out, device.width);
  out += ",\"tasks\":[";
  for (std::size_t j = 0; j < tasks.size(); ++j) {
    out += j == 0 ? "{\"c\":" : ",{\"c\":";
    append_uint(out, tasks[j].wcet);
    out += ",\"d\":";
    append_uint(out, tasks[j].deadline);
    out += ",\"t\":";
    append_uint(out, tasks[j].period);
    out += ",\"a\":";
    append_uint(out, tasks[j].area);
    out += '}';
  }
  out += "]}";
  return out;
}

}  // namespace perfbench

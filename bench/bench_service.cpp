// bench_service — throughput of the serving path at varying
// request-duplication ratios, with and without the verdict cache.
//
// The serving scenario: an admission controller sees a stream of analysis
// requests in which many tasksets repeat (the same accelerator mix is
// requested again and again by different clients). The cache converts every
// repeat into a hash lookup; this bench quantifies the win and checks the
// determinism contract (verdicts identical for 1 vs N shard workers).
//
// Each run drives an in-process net::AsyncServer through net::serve_stdio —
// the path `reconf_serve < requests.ndjson` takes: the NDJSON stream is read
// from a file and the responses are written to another, so the timing
// covers framing, parsing, shard routing, evaluation, reassembly and
// formatting.
//
// Environment knobs:
//   RECONF_SVC_REQUESTS  requests per run            (default 20000)
//   RECONF_SVC_UNIQUE    distinct tasksets in the pool (default 256)
//   RECONF_SVC_NTASKS    tasks per taskset           (default 12)
//   RECONF_THREADS       shard workers               (default: all cores)

#include <fcntl.h>
#include <unistd.h>

#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "common/env.hpp"
#include "common/rng.hpp"
#include "common/stopwatch.hpp"
#include "common/thread_pool.hpp"
#include "gen/generator.hpp"
#include "net/server.hpp"

namespace {

using namespace reconf;

/// Deterministic pool of distinct tasksets. Target system utilizations are
/// spread over [5, 95] on a width-100 device so the verdict mix includes
/// accepts and rejects (the pure unconstrained draw almost always lands far
/// above the schedulability cliff and every verdict would be a reject).
std::vector<TaskSet> make_pool(std::size_t count, int ntasks,
                               std::uint64_t seed) {
  std::vector<TaskSet> pool;
  pool.reserve(count);
  for (std::size_t i = 0; pool.size() < count; ++i) {
    gen::GenRequest req;
    req.profile = gen::GenProfile::unconstrained(ntasks);
    req.seed = derive_seed(seed, i);
    req.target_system_util =
        5.0 + 90.0 * static_cast<double>(i % 64) / 63.0;
    req.target_tolerance = 2.0;
    if (auto ts = gen::generate(req)) pool.push_back(std::move(*ts));
  }
  return pool;
}

std::string request_line(std::size_t id, const TaskSet& ts) {
  std::string out = "{\"id\":\"" + std::to_string(id) +
                    "\",\"device\":100,\"tasks\":[";
  for (std::size_t j = 0; j < ts.size(); ++j) {
    const Task& t = ts[j];
    out += j == 0 ? "{\"c\":" : ",{\"c\":";
    out += std::to_string(t.wcet) + ",\"d\":" + std::to_string(t.deadline) +
           ",\"t\":" + std::to_string(t.period) +
           ",\"a\":" + std::to_string(t.area) + "}";
  }
  return out + "]}\n";
}

/// NDJSON request stream with the given duplication ratio: a request repeats
/// one of the `hot` tasksets with probability `dup`, otherwise it consumes
/// the next never-before-seen pool entry — so at dup=0 every request is
/// distinct and the cache is pure overhead, the honest baseline.
std::string make_stream(const std::vector<TaskSet>& pool, std::size_t hot,
                        std::size_t requests, double dup,
                        std::uint64_t seed) {
  std::string stream;
  std::size_t fresh = hot;  // entries [0, hot) are the duplicated set
  for (std::size_t i = 0; i < requests; ++i) {
    Xoshiro256ss rng(derive_seed(seed, i));  // index-derived: deterministic
    if (rng.uniform01() < dup || fresh >= pool.size()) {
      stream += request_line(
          i, pool[static_cast<std::size_t>(
                 rng.uniform_int(0, static_cast<std::int64_t>(hot) - 1))]);
    } else {
      stream += request_line(i, pool[fresh++]);
    }
  }
  return stream;
}

struct RunResult {
  double seconds = 0;
  double hit_rate = 0;
  std::uint64_t accepted = 0;
  /// Response lines with the nondeterministic "cache" field removed: id,
  /// verdict, accepted_by and hash must not depend on cache or shards.
  std::vector<std::string> verdicts;
};

std::vector<std::string> read_verdicts(const std::string& path) {
  std::vector<std::string> lines;
  std::ifstream in(path);
  std::string line;
  while (std::getline(in, line)) {
    for (const char* field : {"\"cache\":\"hit\",", "\"cache\":\"miss\","}) {
      const std::size_t at = line.find(field);
      if (at != std::string::npos) line.erase(at, std::strlen(field));
    }
    lines.push_back(std::move(line));
  }
  return lines;
}

RunResult run(const std::string& input_path, const std::string& output_path,
              bool with_cache, unsigned shards) {
  net::ServerConfig config;
  config.shards = shards;
  config.cache_capacity = with_cache ? 1 << 16 : 0;
  net::AsyncServer server(config);

  const int in = ::open(input_path.c_str(), O_RDONLY);
  const int out =
      ::open(output_path.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  std::string error;
  Stopwatch clock;
  const bool ok = in >= 0 && out >= 0 &&
                  net::serve_stdio(server, in, out, &error);
  RunResult result;
  result.seconds = clock.seconds();
  server.stop();
  if (in >= 0) ::close(in);
  if (out >= 0) ::close(out);
  if (!ok) {
    std::fprintf(stderr, "serve_stdio failed: %s\n", error.c_str());
    std::exit(1);
  }
  result.hit_rate = server.cache_stats().hit_rate();
  result.accepted = server.totals().accepted;
  result.verdicts = read_verdicts(output_path);
  return result;
}

}  // namespace

int main() {
  const auto requests =
      static_cast<std::size_t>(env_int64("RECONF_SVC_REQUESTS", 20000));
  const auto unique =
      static_cast<std::size_t>(env_int64("RECONF_SVC_UNIQUE", 256));
  const int ntasks = static_cast<int>(env_int64("RECONF_SVC_NTASKS", 12));
  const unsigned shards =
      effective_threads(static_cast<unsigned>(env_int64("RECONF_THREADS", 0)));

  std::printf("=== bench_service — serving path throughput ===\n");
  std::printf("requests=%zu hot_tasksets=%zu tasks/set=%d shards=%u\n\n",
              requests, unique, ntasks, shards);

  // `unique` hot tasksets for the duplicated traffic plus enough distinct
  // ones that fresh requests never repeat.
  const auto pool = make_pool(unique + requests, ntasks, 0xBE5EC0DE);
  const std::filesystem::path dir = std::filesystem::temp_directory_path();
  const std::string tag = std::to_string(::getpid());
  const std::string input = (dir / ("bench_service_" + tag + ".in")).string();
  const std::string output =
      (dir / ("bench_service_" + tag + ".out")).string();

  std::printf("%-8s %12s %12s %9s %9s %10s\n", "dup", "req/s (off)",
              "req/s (on)", "speedup", "hit-rate", "accepted");
  int status = 0;
  for (const double dup : {0.0, 0.5, 0.9, 0.99}) {
    std::ofstream(input) << make_stream(pool, unique, requests, dup,
                                        0xD0BE5EC0 +
                                            static_cast<int>(dup * 100));

    const RunResult off = run(input, output, /*with_cache=*/false, shards);
    const RunResult on = run(input, output, /*with_cache=*/true, shards);
    if (off.verdicts.size() != requests || off.verdicts != on.verdicts) {
      std::fprintf(stderr, "BUG: cache changed verdicts at dup=%.2f\n", dup);
      status = 1;
      break;
    }

    // Determinism contract: 1 shard and N shards must agree bit-for-bit
    // on the verdict fields (fresh caches per run).
    const RunResult serial = run(input, output, /*with_cache=*/true, 1);
    if (serial.verdicts != on.verdicts) {
      std::fprintf(stderr, "BUG: shard count changed verdicts at dup=%.2f\n",
                   dup);
      status = 1;
      break;
    }

    const double rps_off = static_cast<double>(requests) / off.seconds;
    const double rps_on = static_cast<double>(requests) / on.seconds;
    std::printf("%-8.2f %12.0f %12.0f %8.1fx %8.1f%% %10" PRIu64 "\n", dup,
                rps_off, rps_on, rps_on / rps_off, 100.0 * on.hit_rate,
                on.accepted);
  }
  std::filesystem::remove(input);
  std::filesystem::remove(output);
  if (status == 0) {
    std::printf("\ncache-on verdicts matched cache-off and 1-shard runs "
                "bit-for-bit (id, verdict, accepted_by, hash).\n");
  }
  return status;
}

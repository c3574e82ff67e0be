// reconf_loadgen — multi-connection load driver for the async serving tier
// (reconf_serve --listen): opens N TCP connections, pipelines NDJSON
// analysis requests over each without waiting for responses (open loop up
// to a bounded in-flight window), and measures end-to-end throughput and
// exact p50/p95/p99 response latency.
//
//   reconf_loadgen --port=N [--host=ADDR] [--connections=N] [--requests=N]
//                  [--dup-ratio=PCT] [--stats-every=N] [--window=N]
//                  [--label=NAME] [--merge=BENCH_perf.json]
//                  [--baseline=BENCH_perf.json] [--baseline-tolerance=PCT]
//
//   --port=N            server port (required; pair with reconf_serve
//                       --listen=127.0.0.1:0 --port-file=...)
//   --host=ADDR         server address (default 127.0.0.1)
//   --connections=N     concurrent connections (default 4)
//   --requests=N        total requests across all connections
//                       (default 200000)
//   --dup-ratio=PCT     percentage [0..100] of requests drawn from a small
//                       hot set of tasksets (cache-hit path); the rest are
//                       unique per request (uncached path). Default 0.
//   --stats-every=N     interleave a {"stats":true} introspection request
//                       every N requests per connection (0 = never;
//                       exercises the stats path under load)
//   --window=N          max responses a connection may be behind before its
//                       writer pauses (default 1024) — bounds client memory
//                       while keeping the server's input saturated
//   --label=NAME        key inside the service_async section for this run
//                       (default "uncached" when --dup-ratio=0, else
//                       "dupNN")
//   --merge=PATH        merge a {"label": {...}} run record into the
//                       service_async section of the JSON report at PATH
//                       (created when missing)
//   --baseline=PATH     read service_async.<label>.rps from a committed
//                       report and exit 1 when this run regresses by more
//                       than --baseline-tolerance (default 30) percent —
//                       the CI perf-smoke gate
//
// Responses come back in request order per connection (the server
// guarantees it), so latency needs no id correlation: the k-th response on
// a connection answers the k-th request, and its latency is now minus the
// recorded send time. Every latency sample is kept; percentiles are exact,
// not estimated.
//
// Duplicate routing note: all duplicates of a taskset hash to one shard
// worker, so the hot set is sized (64 keys) to spread across shards while
// keeping per-key hit rates high.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <sys/socket.h>
#include <unistd.h>

#include "common/flags.hpp"
#include "common/report_merge.hpp"
#include "net/poller.hpp"
#include "svc/codec.hpp"

namespace {

using namespace reconf;
using Clock = std::chrono::steady_clock;

/// Request body for the g-th globally unique workload index: a 3-task set
/// whose first task's parameters are a mixed-radix decode of the index
/// (600 WCETs x 60 areas x deadline offsets), so every index has a
/// distinct canonical hash — a distinct cache key, spread over shards by
/// the consistent hash — for any realistic request count.
std::string unique_request(std::uint64_t g) {
  const unsigned c = static_cast<unsigned>(1 + g % 600);
  const unsigned a = static_cast<unsigned>(1 + (g / 600) % 60);
  const unsigned d = static_cast<unsigned>(700 + (g / 36'000));
  std::string out = "{\"device\":100,\"tasks\":[{\"c\":";
  out += std::to_string(c);
  out += ",\"d\":";
  out += std::to_string(d);
  out += ",\"t\":";
  out += std::to_string(d);
  out += ",\"a\":";
  out += std::to_string(a);
  out += "},{\"c\":40,\"d\":500,\"t\":500,\"a\":7},"
         "{\"c\":30,\"d\":900,\"t\":900,\"a\":5}]}";
  return out;
}

constexpr std::size_t kHotSetSize = 64;

struct ConnResult {
  std::vector<std::uint64_t> latencies_ns;
  std::uint64_t responses = 0;
  std::uint64_t verdicts = 0;
  std::uint64_t cache_hits = 0;
  std::uint64_t sheds = 0;
  std::uint64_t errors = 0;
  std::uint64_t stats_lines = 0;
  bool failed = false;
  std::string fail_reason;
};

struct RunConfig {
  std::string host;
  std::uint16_t port = 0;
  unsigned connections = 4;
  std::uint64_t requests = 200'000;
  unsigned dup_pct = 0;
  std::uint64_t stats_every = 0;
  std::uint64_t window = 1024;
};

/// One connection's closed-window open loop: the writer side streams
/// requests in 64-line batches, the reader side (same thread, interleaved)
/// drains responses; the writer only pauses when `window` responses are
/// outstanding. Single-threaded per connection keeps send-timestamp
/// recording and response matching trivially ordered.
void drive_connection(const RunConfig& config, unsigned conn_index,
                      std::uint64_t request_count, ConnResult& result) {
  std::string error;
  const int fd = net::connect_tcp(config.host, config.port, &error);
  if (fd < 0) {
    result.failed = true;
    result.fail_reason = error;
    return;
  }
  if (!net::set_nonblocking(fd)) {
    result.failed = true;
    result.fail_reason = "cannot set nonblocking";
    ::close(fd);
    return;
  }

  std::vector<std::uint64_t> send_ns;
  send_ns.reserve(request_count + request_count / 64 + 2);
  result.latencies_ns.reserve(send_ns.capacity());

  svc::StreamFramer framer;
  std::string out_pending;
  std::size_t out_off = 0;
  std::uint64_t sent = 0;
  std::uint64_t since_stats = 0;
  char buf[64 * 1024];
  std::string line;
  svc::LineStatus status;

  // Duplicate selection is deterministic per global index: the low dup_pct
  // per-hundred slots of every request-index century are hot-set draws.
  const std::uint64_t base = conn_index * request_count;

  const auto t0 = Clock::now();
  auto now_ns = [&] {
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                             t0)
            .count());
  };

  bool write_done = false;
  bool shutdown_sent = false;
  while (result.responses < send_ns.size() || !write_done) {
    // Fill the output buffer while the window has room.
    if (!write_done && out_off >= out_pending.size() &&
        send_ns.size() - result.responses < config.window) {
      out_pending.clear();
      out_off = 0;
      const std::uint64_t batch =
          std::min<std::uint64_t>(64, request_count - sent);
      for (std::uint64_t b = 0; b < batch; ++b) {
        const std::uint64_t g = base + sent;
        if (config.stats_every > 0 && ++since_stats >= config.stats_every) {
          since_stats = 0;
          out_pending += "{\"stats\":true}\n";
          send_ns.push_back(now_ns());
        }
        if (config.dup_pct > 0 && (g % 100) < config.dup_pct) {
          out_pending += unique_request(g % kHotSetSize);
        } else {
          out_pending += unique_request(kHotSetSize + g);
        }
        out_pending += '\n';
        send_ns.push_back(now_ns());
        ++sent;
      }
      if (sent >= request_count) write_done = true;
    }

    bool progressed = false;
    while (out_off < out_pending.size()) {
      const ssize_t n = ::write(fd, out_pending.data() + out_off,
                                out_pending.size() - out_off);
      if (n > 0) {
        out_off += static_cast<std::size_t>(n);
        progressed = true;
        continue;
      }
      if (errno == EAGAIN || errno == EWOULDBLOCK || errno == EINTR) break;
      result.failed = true;
      result.fail_reason = std::strerror(errno);
      ::close(fd);
      return;
    }
    if (write_done && out_off >= out_pending.size() && !shutdown_sent) {
      ::shutdown(fd, SHUT_WR);
      shutdown_sent = true;
    }

    const ssize_t n = ::read(fd, buf, sizeof buf);
    if (n > 0) {
      progressed = true;
      const std::uint64_t arrival = now_ns();
      framer.feed(buf, static_cast<std::size_t>(n));
      while (framer.next(line, status)) {
        if (result.responses >= send_ns.size()) {
          result.failed = true;
          result.fail_reason = "more responses than requests";
          ::close(fd);
          return;
        }
        result.latencies_ns.push_back(arrival -
                                      send_ns[result.responses]);
        ++result.responses;
        if (line.find("\"verdict\":") != std::string::npos) {
          ++result.verdicts;
          if (line.find("\"cache\":\"hit\"") != std::string::npos) {
            ++result.cache_hits;
          }
        } else if (line.find("\"shed\":") != std::string::npos) {
          ++result.sheds;
        } else if (line.find("\"stats\":") != std::string::npos) {
          ++result.stats_lines;
        } else {
          ++result.errors;
        }
      }
    } else if (n == 0) {
      if (result.responses < send_ns.size() || !write_done) {
        result.failed = true;
        result.fail_reason = "server closed early";
      }
      ::close(fd);
      return;
    } else if (errno != EAGAIN && errno != EWOULDBLOCK && errno != EINTR) {
      result.failed = true;
      result.fail_reason = std::strerror(errno);
      ::close(fd);
      return;
    }

    if (!progressed) {
      // Both directions blocked: nap briefly instead of spinning a core the
      // server needs (single-machine benchmarking).
      std::this_thread::sleep_for(std::chrono::microseconds(50));
    }
  }
  ::close(fd);
}

std::uint64_t percentile(std::vector<std::uint64_t>& sorted, double p) {
  if (sorted.empty()) return 0;
  const std::size_t rank = std::min(
      sorted.size() - 1,
      static_cast<std::size_t>(p * static_cast<double>(sorted.size())));
  return sorted[rank];
}

/// Reads service_async.<label>.rps from a committed report with the same
/// pragmatic scanning the report writer uses — locate the section, then the
/// label, then the "rps" number.
std::optional<double> read_baseline_rps(const std::string& path,
                                        const std::string& label) {
  std::ifstream in(path);
  if (!in) return std::nullopt;
  std::ostringstream ss;
  ss << in.rdbuf();
  const std::string text = ss.str();
  std::size_t at = text.find("\"service_async\"");
  if (at == std::string::npos) return std::nullopt;
  at = text.find("\"" + label + "\"", at);
  if (at == std::string::npos) return std::nullopt;
  at = text.find("\"rps\"", at);
  if (at == std::string::npos) return std::nullopt;
  at = text.find(':', at);
  if (at == std::string::npos) return std::nullopt;
  try {
    return std::stod(text.substr(at + 1));
  } catch (const std::exception&) {
    return std::nullopt;
  }
}

}  // namespace

int main(int argc, char** argv) {
  const std::vector<std::string> args(argv + 1, argv + argc);
  const long long port = flag_int(args, "port").value_or(0);
  if (port <= 0 || port > 65'535) {
    std::fprintf(stderr, "usage: reconf_loadgen --port=N [--host=ADDR] "
                         "[--connections=N] [--requests=N] [--dup-ratio=PCT] "
                         "[--stats-every=N] [--window=N] [--label=NAME] "
                         "[--merge=PATH] [--baseline=PATH] "
                         "[--baseline-tolerance=PCT]\n"
                         "see the header of tools/reconf_loadgen.cpp\n");
    return 2;
  }
  RunConfig config;
  config.host = flag_str(args, "host").value_or("");
  if (config.host.empty()) config.host = "127.0.0.1";
  config.port = static_cast<std::uint16_t>(port);
  config.connections = static_cast<unsigned>(
      std::clamp<long long>(flag_int(args, "connections").value_or(4),
                            1, 1024));
  config.requests = static_cast<std::uint64_t>(std::max<long long>(
      1, flag_int(args, "requests").value_or(200'000)));
  config.dup_pct = static_cast<unsigned>(
      std::clamp<long long>(flag_int(args, "dup-ratio").value_or(0), 0,
                            100));
  config.stats_every = static_cast<std::uint64_t>(
      std::max<long long>(0, flag_int(args, "stats-every").value_or(0)));
  config.window = static_cast<std::uint64_t>(std::clamp<long long>(
      flag_int(args, "window").value_or(1024), 1, 1'000'000));

  std::string label = flag_str(args, "label").value_or("");
  if (label.empty()) {
    label = config.dup_pct == 0 ? "uncached"
                                : "dup" + std::to_string(config.dup_pct);
  }

  const std::uint64_t per_conn = config.requests / config.connections;
  if (per_conn == 0) {
    std::fprintf(stderr, "--requests must be >= --connections\n");
    return 2;
  }

  std::vector<ConnResult> results(config.connections);
  const auto t0 = Clock::now();
  {
    std::vector<std::thread> drivers;
    drivers.reserve(config.connections);
    for (unsigned c = 0; c < config.connections; ++c) {
      drivers.emplace_back([&, c] {
        drive_connection(config, c, per_conn, results[c]);
      });
    }
    for (std::thread& t : drivers) t.join();
  }
  const double seconds =
      std::chrono::duration_cast<std::chrono::duration<double>>(
          Clock::now() - t0)
          .count();

  ConnResult total;
  for (ConnResult& r : results) {
    if (r.failed) {
      std::fprintf(stderr, "connection failed: %s\n", r.fail_reason.c_str());
      return 1;
    }
    total.responses += r.responses;
    total.verdicts += r.verdicts;
    total.cache_hits += r.cache_hits;
    total.sheds += r.sheds;
    total.errors += r.errors;
    total.stats_lines += r.stats_lines;
    total.latencies_ns.insert(total.latencies_ns.end(),
                              r.latencies_ns.begin(), r.latencies_ns.end());
  }
  if (total.errors > 0) {
    std::fprintf(stderr, "server answered %llu error lines — workload bug\n",
                 static_cast<unsigned long long>(total.errors));
    return 1;
  }
  std::sort(total.latencies_ns.begin(), total.latencies_ns.end());
  const double rps =
      seconds > 0 ? static_cast<double>(total.responses) / seconds : 0.0;
  const std::uint64_t p50 = percentile(total.latencies_ns, 0.50);
  const std::uint64_t p95 = percentile(total.latencies_ns, 0.95);
  const std::uint64_t p99 = percentile(total.latencies_ns, 0.99);

  std::fprintf(stderr,
               "%s: %llu responses over %u connections in %.3fs — %.0f "
               "req/s\n"
               "  verdicts=%llu cache_hits=%llu sheds=%llu stats=%llu\n"
               "  latency p50=%.1fus p95=%.1fus p99=%.1fus\n",
               label.c_str(),
               static_cast<unsigned long long>(total.responses),
               config.connections, seconds, rps,
               static_cast<unsigned long long>(total.verdicts),
               static_cast<unsigned long long>(total.cache_hits),
               static_cast<unsigned long long>(total.sheds),
               static_cast<unsigned long long>(total.stats_lines),
               static_cast<double>(p50) * 1e-3,
               static_cast<double>(p95) * 1e-3,
               static_cast<double>(p99) * 1e-3);

  char record[768];
  std::snprintf(
      record, sizeof record,
      "{\n      \"connections\": %u,\n      \"requests\": %llu,\n"
      "      \"dup_ratio_pct\": %u,\n      \"rps\": %.0f,\n"
      "      \"cache_hits\": %llu,\n      \"sheds\": %llu,\n"
      "      \"p50_ns\": %llu,\n      \"p95_ns\": %llu,\n"
      "      \"p99_ns\": %llu\n    }",
      config.connections,
      static_cast<unsigned long long>(total.responses), config.dup_pct, rps,
      static_cast<unsigned long long>(total.cache_hits),
      static_cast<unsigned long long>(total.sheds),
      static_cast<unsigned long long>(p50),
      static_cast<unsigned long long>(p95),
      static_cast<unsigned long long>(p99));

  const std::string merge_path = flag_str(args, "merge").value_or("");
  if (!merge_path.empty()) {
    // Nested merge: fetch/extend the service_async section with this run's
    // label. Two passes through the shared helper keep it one-key simple:
    // first ensure the section exists, then splice the label inside it by
    // treating "service_async" as the file-level key and re-merging the
    // updated section text.
    std::ifstream in(merge_path);
    std::string text;
    if (in) {
      std::ostringstream ss;
      ss << in.rdbuf();
      text = ss.str();
    }
    std::string section;
    const std::size_t at = text.find("\"service_async\"");
    if (at != std::string::npos) {
      const std::size_t open = text.find('{', at);
      int depth = 0;
      std::size_t end = open;
      for (; end < text.size(); ++end) {
        if (text[end] == '{') ++depth;
        if (text[end] == '}' && --depth == 0) break;
      }
      section = text.substr(open, end + 1 - open);
    } else {
      section = "{\n    \"schema\": \"reconf-bench-service-async/1\"\n  }";
    }
    // Splice the label into the section (replace or append before final }).
    const std::string quoted_label = "\"" + label + "\"";
    const std::size_t lab = section.find(quoted_label);
    const std::string entry = quoted_label + ": " + record;
    if (lab != std::string::npos) {
      const std::size_t open = section.find('{', lab);
      int depth = 0;
      std::size_t end = open;
      for (; end < section.size(); ++end) {
        if (section[end] == '{') ++depth;
        if (section[end] == '}' && --depth == 0) break;
      }
      section.replace(lab, end + 1 - lab, entry);
    } else {
      const std::size_t close = section.rfind('}');
      std::size_t tail = close;
      while (tail > 0 &&
             (section[tail - 1] == '\n' || section[tail - 1] == ' ')) {
        --tail;
      }
      const bool empty_section =
          section.find(':') == std::string::npos;  // "{}" or "{\n}"
      section.replace(tail, close - tail,
                      (empty_section ? "\n    " : ",\n    ") + entry + "\n  ");
    }
    std::string error;
    if (!merge_report_section(merge_path, "service_async", section,
                              &error)) {
      std::fprintf(stderr, "%s\n", error.c_str());
      return 1;
    }
    std::fprintf(stderr, "merged service_async.%s into %s\n", label.c_str(),
                 merge_path.c_str());
  }

  const std::string baseline_path = flag_str(args, "baseline").value_or("");
  if (!baseline_path.empty()) {
    const long long tolerance =
        std::clamp<long long>(
            flag_int(args, "baseline-tolerance").value_or(30), 0, 100);
    const std::optional<double> baseline =
        read_baseline_rps(baseline_path, label);
    if (!baseline) {
      std::fprintf(stderr,
                   "no service_async.%s.rps baseline in %s — skipping gate\n",
                   label.c_str(), baseline_path.c_str());
      return 0;
    }
    const double floor =
        *baseline * (1.0 - static_cast<double>(tolerance) / 100.0);
    if (rps < floor) {
      std::fprintf(stderr,
                   "REGRESSION: %.0f req/s is more than %lld%% below the "
                   "committed %s baseline of %.0f req/s\n",
                   rps, tolerance, label.c_str(), *baseline);
      return 1;
    }
    std::fprintf(stderr,
                 "baseline gate ok: %.0f req/s vs committed %.0f (floor "
                 "%.0f)\n",
                 rps, *baseline, floor);
  }
  return 0;
}

// reconf_serve — streaming admission-control service: answers NDJSON
// analysis requests with NDJSON verdict lines, over stdin/stdout (or a
// request file) or over TCP, and keeps a sharded LRU verdict cache so
// repeated tasksets skip re-analysis entirely (see src/svc/, src/net/).
//
//   reconf_serve [<requests.ndjson>] [--listen=[HOST:]PORT] [--port-file=PATH]
//                [--shards=N] [--io-threads=N] [--pin-cores]
//                [--cache-capacity=N] [--no-cache] [--cache-snapshot=PATH]
//                [--tests=LIST] [--fkf] [--explain]
//                [--max-queue=N] [--overload=block|shed]
//                [--request-timeout-ms=N] [--stats]
//                [--metrics-out=PATH] [--trace-out=PATH]
//
// Both modes run one serving path, net::AsyncServer (src/net/server.hpp): a
// level-triggered epoll event loop (poll(2) fallback; RECONF_NET_POLL=1
// forces it) frames and parses each connection and feeds shard workers over
// SPSC rings. Requests are routed by consistent hash of the verdict-cache
// key, so each shard owns a private lock-free cache partition; responses
// are reassembled into request order per connection. Without --listen, the
// request file or stdin is served as one connection of that server
// (responses on stdout) and no TCP port is opened.
//
//   --listen=[HOST:]PORT  serve NDJSON over TCP instead of stdio. PORT 0
//                       binds an ephemeral port (printed on stderr as
//                       "listening on HOST:PORT ...")
//   --port-file=PATH    after binding, write the actual port to PATH — how
//                       scripts pair --listen=127.0.0.1:0 with a
//                       reconf_loadgen --port=$(cat PATH)
//   --shards=N          shard workers, each owning one cache partition
//                       (default 0 = cores)
//   --io-threads=N      event-loop threads framing/parsing connections
//                       (default 1; stdio is one connection, served by one)
//   --pin-cores         pin shard worker s to core s and io thread k to
//                       core shards + k (mod cores) via
//                       pthread_setaffinity_np; a no-op off Linux. Pinned ids
//                       surface in the reconf_net_shard_cpu and
//                       reconf_net_io_cpu gauges
//   --cache-capacity=N  verdict cache entries, split across the shards
//                       (default 65536)
//   --no-cache          disable the cache (every request re-analyzes)
//   --cache-snapshot=PATH  warm-restore the verdict cache from PATH at
//                       startup (missing file = cold start) and write a
//                       crash-safe snapshot back to PATH at exit; the v1
//                       format is independent of the shard count
//   --tests=LIST        default analyzer lineup, comma-separated registry
//                       ids (default dp,gn1,gn2); per-request "tests"
//                       override it. Unknown ids abort with the registered
//                       list.
//   --fkf               keep only the EDF-FkF-sound analyzers (drops GN1)
//   --explain           full diagnostics: evaluate through the reference
//                       evaluators and attach the per-analyzer "sub" array
//                       (sub-verdicts + timings) to every fresh response.
//                       Default is the allocation-free SoA fast path, which
//                       answers the verdict only — identical verdicts, ~an
//                       order of magnitude more throughput on misses
//   --max-queue=N       depth of each request ring between an io thread and
//                       a shard worker (default 4096)
//   --overload=MODE     what a full ring does: "block" (default) pauses
//                       reading the offending connection (back-pressure on
//                       the socket or the input), "shed" drops the request
//                       and answers {"id":...,"shed":"queue"} in stream order
//   --request-timeout-ms=N  per-request deadline from the moment the line is
//                       parsed; a request still unserved when a shard worker
//                       picks it up is answered {"id":...,"shed":"deadline"}
//   --stats             print throughput and cache statistics to stderr
//   --metrics-out=PATH  at exit, write every registered metric in the
//                       Prometheus text exposition format to PATH
//                       ("-" = stderr) — the file a scraper's textfile
//                       collector picks up
//   --trace-out=PATH    record spans (engine runs, analyzer invocations,
//                       cache lookups, requests) for the whole process and
//                       write Chrome trace-event JSON to PATH at exit; load
//                       it in Perfetto (ui.perfetto.dev) or chrome://tracing
//
// A request line of {"id":"...","stats":true} is answered in stream order
// with a live metrics snapshot ({"id":...,"stats":{...}}) instead of a
// verdict: per-analyzer verdict counters and latency percentiles, cache
// hit/miss/imbalance gauges, server topology — see src/svc/stats_surface.hpp.
//
// Request/response format: see src/svc/codec.hpp. Malformed lines produce
// an {"id":...,"error":...} response and the stream continues — one bad
// client request must not take down the verdict service. Lines beyond the
// codec's 1 MiB cap are drained with bounded memory and answered with an
// error carrying a best-effort id. A final line without a trailing newline
// is still served.
//
// SIGINT/SIGTERM shut down gracefully: reading stops at once (stdin need
// not close), every request already parsed is answered, metrics / trace /
// cache-snapshot files are flushed, and the exit status is 0.
//
//   $ echo '{"id":"q","device":100,"tasks":[{"c":126,"a":9,...}]}' | ./reconf_serve --stats

#include <fcntl.h>
#include <unistd.h>

#include <chrono>
#include <csignal>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "analysis/engine.hpp"
#include "analysis/registry.hpp"
#include "common/flags.hpp"
#include "common/stopwatch.hpp"
#include "net/poller.hpp"
#include "net/server.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "svc/batch.hpp"
#include "svc/stats_surface.hpp"

namespace {

using namespace reconf;

/// The server a SIGINT/SIGTERM drains; set before the handlers go in.
net::AsyncServer* g_server = nullptr;

void on_signal(int) { g_server->request_stop(); }

/// Installs `on_signal` without SA_RESTART, so a thread blocked in a
/// read or poll wakes with EINTR and re-checks the stop flag.
void install_signal_handlers() {
  struct sigaction sa = {};
  sa.sa_handler = on_signal;
  sigemptyset(&sa.sa_mask);
  sa.sa_flags = 0;
  sigaction(SIGINT, &sa, nullptr);
  sigaction(SIGTERM, &sa, nullptr);
}

int usage() {
  std::fprintf(stderr,
               "usage: reconf_serve [<requests.ndjson>] "
               "[--listen=[HOST:]PORT] [--port-file=PATH]\n"
               "                    [--shards=N] [--io-threads=N] "
               "[--pin-cores]\n"
               "                    [--cache-capacity=N] [--no-cache] "
               "[--cache-snapshot=PATH]\n"
               "                    [--tests=LIST] [--fkf] [--explain]\n"
               "                    [--max-queue=N] [--overload=block|shed]\n"
               "                    [--request-timeout-ms=N] [--stats]\n"
               "                    [--metrics-out=PATH] [--trace-out=PATH]\n"
               "see the header of tools/reconf_serve.cpp for details\n");
  return 2;
}

/// Resolves the configured default lineup once at startup — an unknown id
/// (engine error already lists the registered analyzers) or a lineup that
/// the scheduler restriction empties must abort here, not degrade every
/// future response.
void validate_default_lineup(const svc::BatchOptions& options) {
  try {
    const analysis::AnalysisEngine probe(options.request);
    if (probe.empty()) {
      std::fprintf(stderr,
                   "the configured --tests lineup has no analyzer sound for "
                   "the --fkf restriction; registered analyzers: %s\n",
                   analysis::AnalyzerRegistry::instance().id_list().c_str());
      std::exit(2);
    }
  } catch (const analysis::UnknownAnalyzerError& e) {
    std::fprintf(stderr, "%s\n", e.what());
    std::exit(2);
  }
}

/// Writes `text` to `path` ("-" = stderr); a failed open is reported but
/// does not change the exit status — the verdicts already went out.
void write_text_file(const std::string& path, const std::string& text,
                     const char* what) {
  if (path == "-") {
    std::fputs(text.c_str(), stderr);
    return;
  }
  std::ofstream out(path);
  if (!out) {
    std::fprintf(stderr, "cannot write %s to %s\n", what, path.c_str());
    return;
  }
  out << text;
}

/// Splits `--listen=[HOST:]PORT`; false when PORT is not in [0, 65535].
bool parse_listen(const std::string& listen, std::string& host,
                  std::uint16_t& port) {
  host = "127.0.0.1";
  std::string port_text = listen;
  const std::size_t colon = listen.rfind(':');
  if (colon != std::string::npos) {
    host = listen.substr(0, colon);
    port_text = listen.substr(colon + 1);
  }
  const std::optional<std::uint16_t> parsed =
      parse_int<std::uint16_t>(port_text);
  if (!parsed || host.empty()) return false;
  port = *parsed;
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  std::vector<std::string> args;
  std::string input_path;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (a.rfind("--", 0) == 0) {
      if (!known_flag(a, {"--cache-capacity=", "--shards=", "--tests=",
                          "--no-cache", "--fkf", "--stats", "--explain",
                          "--metrics-out=", "--trace-out=", "--max-queue=",
                          "--overload=", "--request-timeout-ms=",
                          "--cache-snapshot=", "--listen=", "--io-threads=",
                          "--pin-cores", "--port-file="})) {
        std::fprintf(stderr, "unknown flag: %s\n", a.c_str());
        return usage();
      }
      args.push_back(a);
    } else if (input_path.empty()) {
      input_path = a;
    } else {
      return usage();
    }
  }

  const std::string listen = flag_str(args, "listen").value_or("");
  const long long cache_capacity =
      has_flag(args, "no-cache") ? 0
                                 : flag_int(args, "cache-capacity")
                                       .value_or(65536);
  const long long shards = flag_int(args, "shards").value_or(0);
  const long long io_threads = flag_int(args, "io-threads").value_or(1);
  const long long max_queue = flag_int(args, "max-queue").value_or(4096);
  const long long timeout_ms =
      flag_int(args, "request-timeout-ms").value_or(0);
  const std::string overload = flag_str(args, "overload").value_or("");
  if (!overload.empty() && overload != "block" && overload != "shed") {
    std::fprintf(stderr, "invalid --overload mode '%s' (block|shed)\n",
                 overload.c_str());
    return usage();
  }
  // Upper bounds keep absurd values from turning into a thread-spawn storm
  // or an uncaught length_error (ring allocation).
  if (cache_capacity < 0 || shards < 0 || shards > 65'536 ||
      io_threads <= 0 || io_threads > 256 || max_queue <= 0 ||
      max_queue > 10'000'000 || timeout_ms < 0) {
    return usage();
  }
  if (!listen.empty() && !input_path.empty()) {
    std::fprintf(stderr, "--listen serves TCP; a request file is stdio-mode "
                         "only\n");
    return usage();
  }

  net::ServerConfig config;
  if (!listen.empty() && !parse_listen(listen, config.host, config.port)) {
    std::fprintf(stderr, "invalid --listen '%s' ([HOST:]PORT expected)\n",
                 listen.c_str());
    return 2;
  }
  if (const auto tests = flag_str(args, "tests")) {
    config.options.request.tests = analysis::split_id_list(*tests);
    if (config.options.request.tests.empty()) {
      std::fprintf(stderr,
                   "--tests needs at least one analyzer id; registered "
                   "analyzers: %s\n",
                   analysis::AnalyzerRegistry::instance().id_list().c_str());
      return 2;
    }
  }
  if (has_flag(args, "explain")) {
    // Diagnostics mode: evaluate through the full reference evaluators and
    // carry per-analyzer sub-verdicts + timings in every fresh response.
    // The default decides through the allocation-free SoA fast path.
    config.options.request.diagnostics = true;
    config.options.request.measure = true;
  }
  if (has_flag(args, "fkf")) {
    config.options.request.scheduler = analysis::Scheduler::kEdfFkF;
  }
  validate_default_lineup(config.options);

  int input_fd = STDIN_FILENO;
  if (!input_path.empty()) {
    input_fd = ::open(input_path.c_str(), O_RDONLY | O_CLOEXEC);
    if (input_fd < 0) {
      std::fprintf(stderr, "cannot open %s\n", input_path.c_str());
      return 1;
    }
  }

  const std::string metrics_out = flag_str(args, "metrics-out").value_or("");
  const std::string trace_out = flag_str(args, "trace-out").value_or("");
  const std::string cache_snapshot =
      flag_str(args, "cache-snapshot").value_or("");
  if (!trace_out.empty()) obs::Tracer::instance().start();

  config.io_threads = static_cast<unsigned>(io_threads);
  config.shards = static_cast<unsigned>(shards);
  config.cache_capacity = static_cast<std::size_t>(cache_capacity);
  config.ring_capacity = static_cast<std::size_t>(max_queue);
  config.shed_on_overload = overload == "shed";
  config.request_timeout_ms = timeout_ms;
  config.pin_cores = has_flag(args, "pin-cores");

  net::AsyncServer server(config);
  if (!cache_snapshot.empty() && cache_capacity > 0) {
    std::ifstream probe(cache_snapshot);
    if (probe.good()) {
      probe.close();
      std::size_t restored = 0;
      std::string snap_error;
      if (server.load_cache_snapshot(cache_snapshot, &restored,
                                     &snap_error)) {
        std::fprintf(stderr, "cache: warm-restored %zu entries from %s\n",
                     restored, cache_snapshot.c_str());
      } else {
        std::fprintf(stderr, "cache: snapshot refused (%s); cold start\n",
                     snap_error.c_str());
      }
    }  // missing file: cold start, snapshot written at exit
  }

  g_server = &server;
  install_signal_handlers();
  Stopwatch clock;
  std::string error;
  if (listen.empty()) {
    if (!net::serve_stdio(server, input_fd, STDOUT_FILENO, &error)) {
      std::fprintf(stderr, "stdio: %s\n", error.c_str());
      return 1;
    }
  } else {
    if (!server.start(&error)) {
      std::fprintf(stderr, "cannot listen: %s\n", error.c_str());
      return 1;
    }
    std::fprintf(stderr,
                 "listening on %s:%u (%s, %zu shard workers, %lld io "
                 "threads)\n",
                 config.host.c_str(), static_cast<unsigned>(server.port()),
                 net::Poller().backend(), server.shard_cache_stats().size(),
                 io_threads);
    const std::string port_file = flag_str(args, "port-file").value_or("");
    if (!port_file.empty()) {
      // Scripts (the CI perf-smoke job) bind port 0 and read the real port
      // from here instead of scraping stderr.
      std::ofstream pf(port_file);
      pf << server.port() << "\n";
    }
    while (!server.stopping()) {
      std::this_thread::sleep_for(std::chrono::milliseconds(50));
    }
  }
  server.request_stop();
  server.stop();

  if (has_flag(args, "stats")) {
    const double secs = clock.seconds();
    const net::ServerTotals totals = server.totals();
    const svc::CacheStats cs = server.cache_stats();
    std::fprintf(stderr,
                 "served %llu requests over %llu connections "
                 "(%llu schedulable, %llu errors, %llu shed) in %.3fs — "
                 "%.0f req/s\n",
                 static_cast<unsigned long long>(totals.served),
                 static_cast<unsigned long long>(totals.connections),
                 static_cast<unsigned long long>(totals.accepted),
                 static_cast<unsigned long long>(totals.errors),
                 static_cast<unsigned long long>(totals.sheds), secs,
                 secs > 0 ? static_cast<double>(totals.served) / secs : 0.0);
    std::fprintf(stderr,
                 "cache: capacity=%lld shards=%zu size=%zu hits=%llu "
                 "misses=%llu evictions=%llu hit_rate=%.1f%%\n",
                 cache_capacity, server.shard_cache_stats().size(),
                 cs.entries, static_cast<unsigned long long>(cs.hits),
                 static_cast<unsigned long long>(cs.misses),
                 static_cast<unsigned long long>(cs.evictions),
                 100.0 * cs.hit_rate());
  }
  if (!cache_snapshot.empty() && cache_capacity > 0) {
    std::string snap_error;
    if (!server.save_cache_snapshot(cache_snapshot, &snap_error)) {
      std::fprintf(stderr, "cache: snapshot not written (%s)\n",
                   snap_error.c_str());
    }
  }
  if (!metrics_out.empty()) {
    svc::publish_shard_cache_stats(server.shard_cache_stats(),
                                   static_cast<std::size_t>(cache_capacity));
    write_text_file(metrics_out,
                    obs::MetricsRegistry::instance().prometheus_text(),
                    "metrics");
  }
  if (!trace_out.empty()) {
    obs::Tracer::instance().stop();
    write_text_file(trace_out, obs::Tracer::instance().chrome_json(),
                    "trace");
  }
  return 0;
}

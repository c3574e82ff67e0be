#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "svc/batch.hpp"
#include "svc/shard_cache.hpp"

namespace reconf::net {

/// Configuration of the async serving tier (reconf_serve, TCP and stdio).
struct ServerConfig {
  std::string host = "127.0.0.1";
  std::uint16_t port = 0;     ///< 0 = ephemeral (tests); port() reports it
  unsigned io_threads = 1;    ///< epoll/poll reader loops (parse + frame)
  unsigned shards = 0;        ///< shard workers; 0 = hardware concurrency
  std::size_t cache_capacity = 65536;  ///< split across shards; 0 disables
  std::size_t ring_capacity = 4096;    ///< per (io, shard) request ring
  bool shed_on_overload = false;  ///< full ring: shed (true) or flow-control
                                  ///< the connection (false)
  long long request_timeout_ms = 0;  ///< 0 = no per-request deadline
  bool pin_cores = false;   ///< pin shard workers, then io threads, to
                            ///< cores (Linux only)
  std::size_t max_outbuf = 4u << 20;  ///< per-conn write buffer cap before
                                      ///< reads pause (flow control)
  svc::BatchOptions options;  ///< pipeline analysis configuration
};

/// Monotonic serving totals (reconf_serve's --stats line).
struct ServerTotals {
  std::uint64_t connections = 0;
  std::uint64_t served = 0;    ///< responses emitted (verdict/error/shed/stats)
  std::uint64_t accepted = 0;  ///< schedulable verdicts
  std::uint64_t errors = 0;
  std::uint64_t sheds = 0;
};

/// Multi-core NDJSON admission-control server.
///
/// Architecture (one box per thread):
///
///   accept ─▶ [ io thread 0..I )  level-triggered epoll (poll fallback)
///              frame NDJSON lines (1 MiB cap), parse, cache-key route
///                 │  SPSC ring per (io, shard): requests
///                 ▼
///            [ shard worker 0..S )  consistent-hash owner of its key range
///              private contention-free ShardCache + AnalysisEngine
///                 │  SPSC ring per (shard, io): responses
///                 ▼
///            [ io thread ]  per-connection in-order reassembly (seq),
///              write buffers with partial-write handling
///
/// Requests are routed by jump-consistent-hash of the verdict-cache key
/// (canonical taskset hash mixed with the resolved engine fingerprint), so
/// one shard owns every duplicate of a (taskset, lineup) pair: its cache
/// partition needs no locks, hit/miss patterns are deterministic per key,
/// and snapshot restore — which places stored entries by the same key —
/// always lands a verdict on the shard its future duplicates route to.
/// Responses carry (connection, seq) and are re-ordered per
/// connection before writing — the wire contract (responses in request
/// order) survives out-of-order shard completion. Stats requests are
/// answered by the io thread at emission time, after everything ahead of
/// them on their connection.
///
/// Connections come from the listen socket (start()) or are handed in
/// already open (adopt(); serve_stdio() serves stdin/stdout that way).
/// Either kind takes the same inbox, framing, shard rings, reassembly,
/// overload policy, deadlines and drain.
class AsyncServer {
 public:
  explicit AsyncServer(ServerConfig config);
  ~AsyncServer();

  AsyncServer(const AsyncServer&) = delete;
  AsyncServer& operator=(const AsyncServer&) = delete;

  /// Binds and spawns the io threads and shard workers. Returns false with
  /// `error` set on bind failure. Call at most once, before any adopt().
  bool start(std::string* error);

  /// Serves `fd`, an already-open stream socket, as one more connection;
  /// the server owns it from here on (sets it nonblocking, closes it at
  /// teardown). Without a prior start(), spawns the shard workers and io
  /// threads and binds no port. Returns false with `error` set (and `fd`
  /// still the caller's) when the fd or the wake pipes cannot be set up.
  bool adopt(int fd, std::string* error);

  /// The bound port (after start(); useful with config.port = 0).
  [[nodiscard]] std::uint16_t port() const noexcept { return port_; }

  /// Requests a graceful drain: stop accepting and reading, answer
  /// everything already parsed, flush, then stop. Async-signal-safe (one
  /// lock-free atomic store); the actual teardown happens in stop().
  void request_stop() noexcept;

  /// Blocks until the drain completes and every thread has joined. Safe to
  /// call once; implied by the destructor.
  void stop();

  /// True once request_stop() was called (or a fatal accept error).
  [[nodiscard]] bool stopping() const noexcept;

  [[nodiscard]] ServerTotals totals() const;

  /// Per-shard cache statistics, shard-index order (live; racy snapshot).
  [[nodiscard]] std::vector<svc::CacheStats> shard_cache_stats() const;

  /// Aggregate over shard_cache_stats().
  [[nodiscard]] svc::CacheStats cache_stats() const;

  /// Poller backend of the io threads ("epoll"/"poll").
  [[nodiscard]] const char* backend() const noexcept;

  /// CPU ids the shard workers are pinned to (-1 = unpinned), shard order.
  [[nodiscard]] std::vector<int> pinned_cpus() const;

  /// CPU ids the io threads are pinned to (-1 = unpinned), io-thread order.
  [[nodiscard]] std::vector<int> pinned_io_cpus() const;

  /// Warm-restores the per-shard caches from a v1 snapshot file, routing
  /// every key into the CURRENT shard count regardless of the writer's
  /// topology. Call before start(). Missing file = cold start (returns
  /// true, 0 restored); a malformed file is refused.
  bool load_cache_snapshot(const std::string& path, std::size_t* restored,
                           std::string* error);

  /// Writes the merged per-shard caches as a v1 snapshot. Call after
  /// stop() (workers quiesced).
  bool save_cache_snapshot(const std::string& path, std::string* error);

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
  std::uint16_t port_ = 0;
};

/// Serves the NDJSON requests read from `in_fd` as one connection of
/// `server`, writing the responses to `out_fd` — reconf_serve's stdio mode.
/// Blocks until `in_fd` reaches end of stream and every response is
/// written, or until server.request_stop() has drained the connection:
/// reading stops, every request already parsed is answered, and the call
/// returns without waiting for `in_fd` to close.
///
/// `in_fd` may be anything read(2) accepts — a pipe, a terminal, a regular
/// file (which epoll refuses) — and neither fd is switched to nonblocking
/// mode (fds 0 and 1 share their file description with the parent shell).
/// The server adopts one end of a socketpair; two blocking copy loops
/// bridge it to the given fds. Returns false with `error` set when the
/// socketpair cannot be set up or `out_fd` stops accepting writes.
bool serve_stdio(AsyncServer& server, int in_fd, int out_fd,
                 std::string* error);

}  // namespace reconf::net

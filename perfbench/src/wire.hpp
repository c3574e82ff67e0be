#pragma once

// The wire side of the harness: reconf_serve as a child process, and one
// single-threaded load generator that drives it over loopback TCP, either
// open loop (a fixed arrival schedule) or closed loop (a fixed number of
// requests in flight per connection).

#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <vector>

#include "proc.hpp"

namespace perfbench {

/// The fields of one response line the harness checks.
struct Response {
  bool verdict = false;      ///< a verdict line (not error, shed or stats)
  bool id_ok = false;        ///< a numeric "id" was present
  std::uint64_t id = 0;
  bool accepted = false;
  bool cache_hit = false;
  std::string_view accepted_by;  ///< "dp" / "gn1" / "gn2" / "" (interned)
  std::uint64_t hash = 0;
};

/// Parses a response line; anything but a verdict has `verdict` false.
[[nodiscard]] Response parse_response(std::string_view line);

/// One answered request: its schedule and its answer.
struct Sample {
  std::uint64_t index = 0;
  std::int64_t intended_ns = 0;  ///< when the schedule said to send it
  std::int64_t appended_ns = 0;  ///< when the generator queued it
  std::int64_t sent_ns = 0;      ///< when its last byte left the socket
  std::int64_t received_ns = 0;  ///< when its response was read
  Response response;
};

/// Writes request `index` (one line, with its newline) onto `out`.
using LineFn = std::function<void(std::uint64_t index, std::string& out)>;

struct DriveConfig {
  std::uint16_t port = 0;
  unsigned connections = 2;
  /// Open loop: requests per second across all connections, evenly spaced.
  /// 0 selects the closed loop.
  double rate = 0.0;
  /// Closed loop: requests kept in flight on each connection.
  unsigned depth = 1;
  /// Length of the sending window.
  double seconds = 1.0;
  /// Stop after this many requests (0 = only the window limits).
  std::uint64_t max_requests = 0;
  std::uint64_t first_index = 0;
  /// Client socket send buffer (0 = system default); the stalled-server
  /// self-test shrinks it so a server that stops reading blocks the client.
  int sndbuf = 0;
  /// Busy-poll instead of sleeping between sends and answers. A VM wakes a
  /// sleeping thread late (up to milliseconds under host contention), and
  /// that lateness would land in the measured latency. The generator has a
  /// CPU of its own; saturation turns this off so the generator's CPU use
  /// still shows whether it, not the server, was the bottleneck.
  bool spin = true;
};

struct DriveResult {
  std::vector<Sample> samples;     ///< answered requests, completion order
  std::uint64_t attempted = 0;     ///< requests queued for sending
  std::uint64_t unanswered = 0;    ///< no answer within the drain time
  std::uint64_t next_index = 0;    ///< first index not used
  std::int64_t start_ns = 0;       ///< time zero of the schedule
  std::int64_t end_ns = 0;         ///< end of the sending window
  std::string error;               ///< connection failure, if any
};

/// Runs one load phase against 127.0.0.1:`config.port`.
[[nodiscard]] DriveResult drive(const DriveConfig& config, const LineFn& line);

/// Sends one line on a fresh connection and returns the first response
/// line (empty on failure or after 5 s).
[[nodiscard]] std::string exchange(std::uint16_t port, const std::string& line);

/// The fixed serving configuration of every wire workload: 1 io thread and
/// 2 shard workers, with the default cache capacity and block overload.
constexpr unsigned kIoThreads = 1;
constexpr unsigned kShards = 2;

struct ServerConfig {
  std::string exe;        ///< path of reconf_serve
  std::string work_dir;   ///< port files and the server's stderr log
  /// CPUs the server runs on, one per thread (empty = all, unpinned).
  std::vector<int> cpus;
};

/// reconf_serve --listen as a child process.
class ServerProcess {
 public:
  /// Launches the server and blocks until it answers `first_line`.
  /// `setup_s` receives the time from launch to that first answer.
  bool start(const ServerConfig& config, const std::string& first_line,
             double* setup_s, std::string* error);

  [[nodiscard]] std::uint16_t port() const noexcept { return port_; }
  [[nodiscard]] pid_t pid() const noexcept { return child_.pid(); }

  /// Graceful stop (SIGTERM drain); returns the exit status.
  int stop() { return child_.stop(); }

 private:
  /// Gives each server thread but the main one its own CPU of `cpus`, in
  /// creation order, so placement does not change from run to run.
  void pin_worker_threads(const std::vector<int>& cpus);

  Child child_;
  std::uint16_t port_ = 0;
};

/// Values read from a final {"stats":true} answer.
struct ServerStats {
  bool ok = false;
  double shard_imbalance = 0.0;  ///< max / mean shard lookups
  double sheds = 0.0;            ///< queue + deadline sheds
  double evictions = 0.0;
};

[[nodiscard]] ServerStats query_stats(std::uint16_t port);

}  // namespace perfbench

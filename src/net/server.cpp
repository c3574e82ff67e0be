#include "net/server.hpp"

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <map>
#include <mutex>
#include <thread>
#include <unordered_map>

#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#if defined(__linux__)
#include <pthread.h>
#include <sched.h>
#endif

#include "analysis/engine.hpp"
#include "analysis/hash.hpp"
#include "common/contracts.hpp"
#include "net/poller.hpp"
#include "net/spsc_ring.hpp"
#include "obs/metrics.hpp"
#include "svc/codec.hpp"
#include "svc/shard_route.hpp"
#include "svc/stats_surface.hpp"

namespace reconf::net {

namespace {

/// Poller tags. Connection ids start above the specials.
constexpr std::uint64_t kListenTag = 0;
constexpr std::uint64_t kWakeTag = 1;
constexpr std::uint64_t kFirstConnId = 2;

constexpr std::size_t kReadChunk = 64 * 1024;

/// One parsed request in flight from an io thread to its shard owner.
struct RequestMsg {
  std::uint64_t conn = 0;
  std::uint64_t seq = 0;
  svc::BatchRequest request;
};

/// One formatted response line on its way back to the owning io thread.
struct ResponseMsg {
  std::uint64_t conn = 0;
  std::uint64_t seq = 0;
  std::string text;
};

/// A queued response waiting for its turn in the connection's emit order.
/// Stats requests are materialized at emission time — the snapshot then
/// reflects every request answered before it on that connection ("stats
/// answered in stream position").
struct PendingOut {
  bool is_stats = false;
  std::string text;  ///< formatted line, or the request id when is_stats
};

/// Per-connection state, owned by exactly one io thread.
struct Conn {
  int fd = -1;
  std::uint64_t id = 0;
  svc::StreamFramer framer;
  std::uint64_t next_seq = 0;   ///< seq for the next parsed line
  std::uint64_t next_emit = 0;  ///< seq the next emitted response must have
  std::uint64_t inflight = 0;   ///< pushed to a shard, not yet answered
  std::map<std::uint64_t, PendingOut> done;  ///< arrived/local, not emitted
  std::string outbuf;
  std::size_t out_off = 0;
  bool want_write = false;
  bool read_closed = false;  ///< peer EOF seen
  bool eof_flushed = false;  ///< framer.finish() already ran
  bool paused = false;       ///< read interest dropped (flow control)
  /// Block-mode overload: a parsed request that found its shard ring full.
  /// Reading is paused until it fits (or the drain sheds it).
  std::unique_ptr<RequestMsg> blocked;
  std::uint32_t blocked_shard = 0;
};

}  // namespace

struct AsyncServer::Impl {
  ServerConfig config;
  unsigned io_count = 1;
  unsigned shard_count = 1;

  int listen_fd = -1;
  std::atomic<bool> stop{false};
  /// io threads that have observed stop and will never push again. Shard
  /// workers exit only when this reaches io_count AND their rings are empty
  /// — the release/acquire pair makes "saw all-stopped then saw empty" a
  /// proof that no request can still be in flight toward the worker.
  std::atomic<unsigned> io_stopped{0};
  std::atomic<bool> accept_failed{false};

  /// rings[io][shard]: requests. back[shard][io]: responses.
  std::vector<std::vector<std::unique_ptr<SpscRing<RequestMsg>>>> requests;
  std::vector<std::vector<std::unique_ptr<SpscRing<ResponseMsg>>>> responses;
  std::vector<std::unique_ptr<Parker>> shard_parkers;
  std::vector<std::unique_ptr<WakePipe>> wakes;  ///< one per io thread

  std::vector<std::unique_ptr<svc::ShardCache>> caches;
  std::vector<std::atomic<int>> pinned;     ///< cpu id per shard, -1 = none
  std::vector<std::atomic<int>> io_pinned;  ///< cpu id per io thread

  /// New fds (accepted by io thread 0, or adopted), handed to their owner
  /// thread.
  struct Inbox {
    std::mutex mutex;
    std::vector<int> fds;
    bool closed = false;  ///< owner exited: hand-offs close the fd instead
  };
  std::vector<std::unique_ptr<Inbox>> inboxes;

  std::vector<std::thread> io_threads;
  std::vector<std::thread> shard_threads;
  std::atomic<const char*> backend_name{"poll"};

  // Serving totals (relaxed: monotonic counters, no ordering needed).
  std::atomic<std::uint64_t> connections{0};
  std::atomic<std::uint64_t> served{0};
  std::atomic<std::uint64_t> accepted{0};
  std::atomic<std::uint64_t> errors{0};
  std::atomic<std::uint64_t> sheds{0};

  std::atomic<std::uint64_t> next_conn_id{kFirstConnId};

  bool started = false;
  bool stopped_joined = false;

  // ----------------------------------------------------------- routing ----

  /// Engine fingerprint of the default analyzer lineup (set once before
  /// the threads start), and a per-io-thread memo of custom-lineup
  /// fingerprints (each map is touched only by its own io thread).
  std::uint64_t default_fp = 0;
  std::vector<std::map<std::vector<std::string>, std::uint64_t>> fp_memo;

  [[nodiscard]] std::uint32_t route(const svc::BatchRequest& request,
                                    unsigned io) {
    // Consistent-hash of the verdict-cache key itself — the mix of the
    // canonical taskset hash and the resolved engine fingerprint that
    // evaluate_with_engine will look up. Using the cache key as the
    // routing key makes placement a single function shared with snapshot
    // restore (load_shard_snapshot routes stored entries by this same
    // key), so a warm-restored verdict always lands on the shard its
    // future duplicates are routed to. Duplicates of a (taskset, lineup)
    // pair land on one shard, whose private cache partition is the only
    // place that verdict can live.
    std::uint64_t fp = default_fp;
    if (!request.tests.empty()) {
      auto& memo = fp_memo[io];
      auto it = memo.find(request.tests);
      if (it == memo.end()) {
        analysis::AnalysisRequest custom = config.options.request;
        custom.tests = request.tests;
        it = memo
                 .emplace(request.tests,
                          analysis::AnalysisEngine(custom).fingerprint())
                 .first;
      }
      fp = it->second;
    }
    return svc::shard_for_key(
        analysis::mix64(
            analysis::canonical_hash(request.taskset, request.device) ^ fp),
        shard_count);
  }

  // ------------------------------------------------------ shard workers ----

  void shard_main(std::uint32_t shard) {
    svc::ShardCache* cache =
        caches[shard]->enabled() ? caches[shard].get() : nullptr;
    // One engine per shard: decide() is thread-safe, but a private engine
    // keeps its stats cells out of cross-core traffic entirely. Custom
    // lineups are resolved once per distinct `tests` vector per shard.
    const analysis::AnalysisEngine shared(config.options.request);
    std::map<std::vector<std::string>, analysis::AnalysisEngine> custom;

    Parker& parker = *shard_parkers[shard];
    RequestMsg msg;
    for (;;) {
      bool did_work = false;
      for (unsigned io = 0; io < io_count; ++io) {
        SpscRing<RequestMsg>& in = *requests[io][shard];
        SpscRing<ResponseMsg>& out = *responses[shard][io];
        while (in.try_pop(msg)) {
          did_work = true;
          ResponseMsg reply;
          reply.conn = msg.conn;
          reply.seq = msg.seq;
          reply.text = answer(shared, custom, msg.request, cache);
          // The response ring can only be full when the io thread is busy;
          // it drains every tick, so yielding (never dropping — a dropped
          // response would wedge the connection's emit order) is enough.
          while (!out.try_push(std::move(reply))) {
            wakes[io]->notify();
            std::this_thread::yield();
          }
          wakes[io]->notify();
        }
      }
      if (!did_work) {
        if (drained(shard)) return;
        parker.park([&] {
          if (stop.load(std::memory_order_acquire)) return true;
          for (unsigned io = 0; io < io_count; ++io) {
            if (!requests[io][shard]->empty()) return true;
          }
          return false;
        });
      }
    }
  }

  [[nodiscard]] bool drained(std::uint32_t shard) const {
    if (io_stopped.load(std::memory_order_acquire) != io_count) return false;
    for (unsigned io = 0; io < io_count; ++io) {
      if (!requests[io][shard]->empty()) return false;
    }
    return true;
  }

  std::string answer(
      const analysis::AnalysisEngine& shared,
      std::map<std::vector<std::string>, analysis::AnalysisEngine>& custom,
      const svc::BatchRequest& request, svc::ShardCache* cache) {
    const analysis::AnalysisEngine* engine = &shared;
    if (!request.tests.empty()) {
      auto it = custom.find(request.tests);
      if (it == custom.end()) {
        analysis::AnalysisRequest custom_request = config.options.request;
        custom_request.tests = request.tests;
        it = custom
                 .emplace(request.tests,
                          analysis::AnalysisEngine(std::move(custom_request)))
                 .first;
      }
      engine = &it->second;
    }
    const svc::BatchVerdict v =
        svc::evaluate_with_engine(*engine, request, cache);
    if (!v.shed.empty()) {
      sheds.fetch_add(1, std::memory_order_relaxed);
      return svc::format_shed_line(v.id, v.shed);
    }
    if (!v.error.empty()) {
      errors.fetch_add(1, std::memory_order_relaxed);
      return svc::format_error_line(v.id, v.error);
    }
    if (v.accepted) accepted.fetch_add(1, std::memory_order_relaxed);
    return svc::format_verdict_line(v, &request.taskset);
  }

  /// Pins a just-spawned thread to core `slot % cores` and records the
  /// core in `cpu`: shard s takes slot s, io thread k slot shard_count + k.
  /// Called from spawn() on the thread's native handle, so the pinned ids
  /// are accurate the moment start() or adopt() returns (no race with
  /// thread startup).
  void maybe_pin(unsigned slot, std::thread& thread, std::atomic<int>& cpu) {
#if defined(__linux__)
    if (!config.pin_cores) return;
    const unsigned cores = std::max(1u, std::thread::hardware_concurrency());
    const int core = static_cast<int>(slot % cores);
    cpu_set_t set;
    CPU_ZERO(&set);
    CPU_SET(core, &set);
    if (::pthread_setaffinity_np(thread.native_handle(), sizeof set, &set) ==
        0) {
      cpu.store(core, std::memory_order_relaxed);
    }
#else
    (void)slot;
    (void)thread;
    (void)cpu;
#endif
  }

  // --------------------------------------------------------- io threads ----

  void io_main(unsigned io) {
    Poller poller;
    if (io == 0) backend_name.store(poller.backend());
    WakePipe& wake = *wakes[io];
    poller.add(wake.fds[0], kWakeTag, /*want_read=*/true,
               /*want_write=*/false);
    if (io == 0 && listen_fd >= 0) {
      poller.add(listen_fd, kListenTag, /*want_read=*/true,
                 /*want_write=*/false);
    }

    std::unordered_map<std::uint64_t, std::unique_ptr<Conn>> conns;
    std::uint64_t pending = 0;  ///< pushed-to-shard, response not yet popped
    std::vector<PollEvent> events;
    std::vector<std::uint64_t> dead;
    bool announced_stop = false;
    char buf[kReadChunk];

    obs::Counter& shed_queue = obs::MetricsRegistry::instance().counter(
        "reconf_svc_shed_total{reason=\"queue\"}");

    for (;;) {
      poller.wait(events, 10);

      for (const PollEvent& ev : events) {
        if (ev.tag == kWakeTag) {
          // Before the ring pops below: they then see every answer whose
          // notify coalesced into this wake.
          wake.drain();
          continue;
        }
        if (ev.tag == kListenTag) {
          if (!stop.load(std::memory_order_acquire)) accept_new();
          continue;
        }
        const auto it = conns.find(ev.tag);
        if (it == conns.end()) continue;  // closed earlier in this batch
        Conn& conn = *it->second;
        if (ev.error) {
          teardown(poller, conns, conn.id);
          continue;
        }
        if (ev.writable) {
          if (!flush_out(poller, conn)) {
            teardown(poller, conns, conn.id);
            continue;
          }
        }
        if (ev.readable && !conn.paused && !conn.read_closed &&
            !stop.load(std::memory_order_acquire)) {
          if (!read_conn(poller, conn, buf, io, pending, shed_queue)) {
            teardown(poller, conns, conn.id);
            continue;
          }
        }
        maybe_close(poller, conns, conn.id);
      }

      // Adopt connections the acceptor handed over.
      adopt_new(poller, conns, io);

      // Drain every shard's response ring into per-connection emit order.
      ResponseMsg reply;
      for (unsigned shard = 0; shard < shard_count; ++shard) {
        while (responses[shard][io]->try_pop(reply)) {
          --pending;
          const auto it = conns.find(reply.conn);
          if (it == conns.end()) continue;  // connection died meanwhile
          Conn& conn = *it->second;
          --conn.inflight;
          conn.done.emplace(reply.seq,
                            PendingOut{false, std::move(reply.text)});
          if (!emit_ready(poller, conn)) {
            teardown(poller, conns, conn.id);
            continue;
          }
          maybe_close(poller, conns, conn.id);
        }
      }

      // Retry block-mode parked requests; their connections resume reading
      // once the shard ring has room again.
      dead.clear();
      for (auto& [id, conn] : conns) {
        if (conn->blocked == nullptr) continue;
        if (stop.load(std::memory_order_acquire)) {
          // Drain: a parked request will never fit (workers are exiting) —
          // answer it shed, exactly what block-mode overload means when the
          // input side is being turned off.
          local_response(
              *conn, conn->blocked->seq,
              PendingOut{false, svc::format_shed_line(
                                    conn->blocked->request.id, "queue")});
          sheds.fetch_add(1, std::memory_order_relaxed);
          shed_queue.inc();
          conn->blocked.reset();
          if (!emit_ready(poller, *conn)) dead.push_back(id);
          continue;
        }
        const std::uint32_t shard = conn->blocked_shard;
        if (requests[io][shard]->try_push(std::move(*conn->blocked))) {
          conn->blocked.reset();
          ++conn->inflight;
          ++pending;
          shard_parkers[shard]->notify();
          if (!pump_conn(poller, *conn, io, pending, shed_queue)) {
            dead.push_back(id);
            continue;
          }
          update_read_interest(poller, *conn);
        }
      }
      for (const std::uint64_t id : dead) teardown(poller, conns, id);
      for (auto it = conns.begin(); it != conns.end();) {
        const std::uint64_t id = (it++)->first;
        maybe_close(poller, conns, id);
      }

      if (stop.load(std::memory_order_acquire)) {
        if (!announced_stop) {
          announced_stop = true;
          if (io == 0 && listen_fd >= 0) poller.remove(listen_fd);
          // Stop reading every connection: drain answers what was already
          // parsed, nothing more — unread input is dropped.
          for (auto& [id, conn] : conns) {
            if (!conn->read_closed && !conn->paused) {
              conn->paused = true;
              update_read_interest(poller, *conn);
            }
          }
        }
        bool blocked_left = false;
        for (auto& [id, conn] : conns) {
          if (conn->blocked != nullptr) blocked_left = true;
        }
        if (pending == 0 && !blocked_left) {
          bool flushed = true;
          for (auto& [id, conn] : conns) {
            if (conn->out_off < conn->outbuf.size()) flushed = false;
          }
          if (flushed) break;
        }
      }
    }

    // No further pushes from this thread: let the shard workers drain out.
    io_stopped.fetch_add(1, std::memory_order_release);
    for (unsigned shard = 0; shard < shard_count; ++shard) {
      shard_parkers[shard]->notify();
    }
    for (auto& [id, conn] : conns) {
      poller.remove(conn->fd);
      ::close(conn->fd);
    }
    poller.remove(wake.fds[0]);
    // An fd adopted while this thread was leaving would never be served or
    // closed, and its peer would wait for EOF forever.
    const std::lock_guard<std::mutex> lock(inboxes[io]->mutex);
    inboxes[io]->closed = true;
    for (const int fd : inboxes[io]->fds) ::close(fd);
    inboxes[io]->fds.clear();
  }

  std::atomic<unsigned> rr_next{0};  ///< round-robin hand-off cursor

  /// Queues `fd` on an io thread's inbox, round-robin, and returns that
  /// thread's index; io thread 0 takes its share through the same inbox so
  /// connection adoption has one code path. The caller wakes the target.
  unsigned hand_off(int fd) {
    connections.fetch_add(1, std::memory_order_relaxed);
    const unsigned target =
        rr_next.fetch_add(1, std::memory_order_relaxed) % io_count;
    const std::lock_guard<std::mutex> lock(inboxes[target]->mutex);
    if (inboxes[target]->closed) {
      ::close(fd);  // stopped server: the peer sees EOF at once
    } else {
      inboxes[target]->fds.push_back(fd);
    }
    return target;
  }

  void accept_new() {
    for (;;) {
      const int fd = ::accept(listen_fd, nullptr, nullptr);
      if (fd < 0) {
        if (errno == EAGAIN || errno == EWOULDBLOCK || errno == EINTR) return;
        if (errno == EMFILE || errno == ENFILE || errno == ECONNABORTED) {
          return;  // transient; the listen socket stays registered
        }
        accept_failed.store(true, std::memory_order_release);
        stop.store(true, std::memory_order_release);
        return;
      }
      if (!set_nonblocking(fd)) {
        ::close(fd);
        continue;
      }
      set_tcp_nodelay(fd);
      const unsigned target = hand_off(fd);
      if (target != 0) wakes[target]->notify();
    }
  }

  void adopt_new(Poller& poller,
                 std::unordered_map<std::uint64_t, std::unique_ptr<Conn>>&
                     conns,
                 unsigned io) {
    std::vector<int> fds;
    {
      const std::lock_guard<std::mutex> lock(inboxes[io]->mutex);
      fds.swap(inboxes[io]->fds);
    }
    for (const int fd : fds) {
      if (stop.load(std::memory_order_acquire)) {
        ::close(fd);  // accepted but never served: drain refuses new work
        continue;
      }
      auto conn = std::make_unique<Conn>();
      conn->fd = fd;
      conn->id = next_conn_id.fetch_add(1, std::memory_order_relaxed);
      poller.add(fd, conn->id, /*want_read=*/true, /*want_write=*/false);
      conns.emplace(conn->id, std::move(conn));
    }
  }

  /// Reads until a short read or EAGAIN, framing and dispatching complete
  /// lines as they land. A short read means the socket was drained: the
  /// poller is level-triggered, so it reports any byte that arrives after
  /// it (or end of stream) again, and a read for the EAGAIN is saved.
  /// Stopping early for flow control is just as safe.
  bool read_conn(Poller& poller, Conn& conn, char* buf, unsigned io,
                 std::uint64_t& pending, obs::Counter& shed_queue) {
    for (;;) {
      const ssize_t n = ::read(conn.fd, buf, kReadChunk);
      if (n > 0) {
        conn.framer.feed(buf, static_cast<std::size_t>(n));
        if (!pump_conn(poller, conn, io, pending, shed_queue)) return false;
        if (conn.paused || conn.blocked != nullptr) return true;
        if (static_cast<std::size_t>(n) < kReadChunk) return true;
        continue;
      }
      if (n == 0) {
        conn.read_closed = true;
        if (conn.blocked == nullptr) {
          return finish_eof(poller, conn, io, pending, shed_queue);
        }
        return true;  // final line handled once the parked request clears
      }
      if (errno == EAGAIN || errno == EWOULDBLOCK || errno == EINTR) {
        return true;
      }
      return false;  // ECONNRESET and friends: tear down
    }
  }

  /// Pops framed lines and routes them, until the connection blocks (full
  /// shard ring in block mode) or flow control pauses it.
  bool pump_conn(Poller& poller, Conn& conn, unsigned io,
                 std::uint64_t& pending, obs::Counter& shed_queue) {
    std::string line;
    svc::LineStatus status;
    while (conn.blocked == nullptr && conn.framer.next(line, status)) {
      if (!handle_line(conn, line, status, io, pending, shed_queue)) break;
    }
    if (conn.read_closed && !conn.eof_flushed && conn.blocked == nullptr) {
      if (!finish_eof(poller, conn, io, pending, shed_queue)) return false;
    }
    if (!emit_ready(poller, conn)) return false;
    update_read_interest(poller, conn);
    return true;
  }

  bool finish_eof(Poller& poller, Conn& conn, unsigned io,
                  std::uint64_t& pending, obs::Counter& shed_queue) {
    std::string line;
    svc::LineStatus status;
    if (!conn.eof_flushed && conn.framer.finish(line, status)) {
      handle_line(conn, line, status, io, pending, shed_queue);
    }
    // A parked final line keeps eof_flushed false so the next pump retries.
    if (conn.blocked == nullptr) conn.eof_flushed = true;
    return emit_ready(poller, conn);
  }

  /// Returns false when the line parked the connection (caller stops
  /// pumping); local responses and successful dispatches return true.
  bool handle_line(Conn& conn, std::string& line, svc::LineStatus status,
                   unsigned io, std::uint64_t& pending,
                   obs::Counter& shed_queue) {
    if (status == svc::LineStatus::kOversized) {
      errors.fetch_add(1, std::memory_order_relaxed);
      local_response(
          conn, conn.next_seq++,
          PendingOut{false,
                     svc::format_error_line(
                         svc::recover_request_id(line),
                         "bad request: line exceeds " +
                             std::to_string(svc::kMaxRequestLine) +
                             " bytes")});
      return true;
    }
    if (line.empty()) return true;

    svc::BatchRequest request;
    try {
      request = svc::parse_request_line(line);
    } catch (const svc::CodecError& e) {
      errors.fetch_add(1, std::memory_order_relaxed);
      local_response(conn, conn.next_seq++,
                     PendingOut{false,
                                svc::format_error_line(e.id(), e.what())});
      return true;
    }
    if (request.stats) {
      local_response(conn, conn.next_seq++,
                     PendingOut{true, request.id});
      return true;
    }
    if (config.request_timeout_ms > 0) {
      request.deadline =
          std::chrono::steady_clock::now() +
          std::chrono::milliseconds(config.request_timeout_ms);
    }

    const std::uint32_t shard = route(request, io);
    RequestMsg msg;
    msg.conn = conn.id;
    msg.seq = conn.next_seq++;
    msg.request = std::move(request);
    if (requests[io][shard]->try_push(std::move(msg))) {
      ++conn.inflight;
      ++pending;
      shard_parkers[shard]->notify();
      return true;
    }
    if (config.shed_on_overload) {
      // Shed: drop the work, answer {"shed":"queue"} in stream order, keep
      // reading.
      sheds.fetch_add(1, std::memory_order_relaxed);
      shed_queue.inc();
      local_response(conn, msg.seq,
                     PendingOut{false, svc::format_shed_line(
                                           msg.request.id, "queue")});
      return true;
    }
    // Block mode: back-pressure this connection — park the request, pause
    // reading, retry every tick. (`msg` is intact: try_push checks for a
    // full ring before touching the slot, so a failed push never moves
    // from its argument.)
    conn.blocked = std::make_unique<RequestMsg>(std::move(msg));
    conn.blocked_shard = shard;
    return false;
  }

  void local_response(Conn& conn, std::uint64_t seq, PendingOut out) {
    conn.done.emplace(seq, std::move(out));
  }

  /// Emits every response whose turn has come into the write buffer, then
  /// flushes. Returns false when the connection must be torn down.
  bool emit_ready(Poller& poller, Conn& conn) {
    auto it = conn.done.find(conn.next_emit);
    while (it != conn.done.end()) {
      PendingOut& out = it->second;
      if (out.is_stats) {
        publish_stats();
        conn.outbuf += svc::format_stats_line(out.text);
      } else {
        conn.outbuf += out.text;
      }
      conn.outbuf += '\n';
      served.fetch_add(1, std::memory_order_relaxed);
      conn.done.erase(it);
      it = conn.done.find(++conn.next_emit);
    }
    return flush_out(poller, conn);
  }

  /// Writes the buffered output, handling partial writes; keeps the write
  /// interest and read-side flow control in sync with the buffer level.
  bool flush_out(Poller& poller, Conn& conn) {
    while (conn.out_off < conn.outbuf.size()) {
      const ssize_t n = ::write(conn.fd, conn.outbuf.data() + conn.out_off,
                                conn.outbuf.size() - conn.out_off);
      if (n > 0) {
        conn.out_off += static_cast<std::size_t>(n);
        continue;
      }
      if (errno == EAGAIN || errno == EWOULDBLOCK || errno == EINTR) break;
      return false;  // EPIPE/ECONNRESET: peer is gone
    }
    if (conn.out_off >= conn.outbuf.size()) {
      conn.outbuf.clear();
      conn.out_off = 0;
    } else if (conn.out_off > (1u << 16)) {
      conn.outbuf.erase(0, conn.out_off);
      conn.out_off = 0;
    }
    conn.want_write = conn.out_off < conn.outbuf.size();
    update_read_interest(poller, conn);
    return true;
  }

  /// One place computes the poller interest set from the connection state:
  /// read while not paused/blocked/closed and the write buffer is within
  /// bounds; write while the buffer has unsent bytes.
  void update_read_interest(Poller& poller, Conn& conn) {
    const bool backlogged =
        conn.outbuf.size() - conn.out_off > config.max_outbuf;
    const bool stopping_now = stop.load(std::memory_order_acquire);
    const bool want_read = !conn.read_closed && conn.blocked == nullptr &&
                           !backlogged && !stopping_now;
    conn.paused = !want_read && !conn.read_closed;
    poller.update(conn.fd, want_read, conn.want_write);
  }

  void maybe_close(
      Poller& poller,
      std::unordered_map<std::uint64_t, std::unique_ptr<Conn>>& conns,
      std::uint64_t id) {
    const auto it = conns.find(id);
    if (it == conns.end()) return;
    Conn& conn = *it->second;
    if (!conn.read_closed || !conn.eof_flushed || conn.inflight > 0 ||
        conn.blocked != nullptr || !conn.done.empty() ||
        conn.out_off < conn.outbuf.size()) {
      return;
    }
    teardown(poller, conns, id);
  }

  void teardown(
      Poller& poller,
      std::unordered_map<std::uint64_t, std::unique_ptr<Conn>>& conns,
      std::uint64_t id) {
    const auto it = conns.find(id);
    if (it == conns.end()) return;
    poller.remove(it->second->fd);
    ::close(it->second->fd);
    // Responses still in flight for this connection are dropped when they
    // surface — the conns lookup fails — and `pending` still decrements.
    conns.erase(it);
  }

  bool open_wakes(std::string* error) {
    for (auto& wake : wakes) {
      if (!wake->open()) {
        if (error != nullptr) *error = "cannot create wake pipe";
        return false;
      }
    }
    return true;
  }

  /// Shard workers first, then io threads: tooling that pins the server's
  /// threads by ascending tid relies on this order.
  void spawn() {
    for (unsigned s = 0; s < shard_count; ++s) {
      shard_threads.emplace_back([this, s] { shard_main(s); });
      maybe_pin(s, shard_threads.back(), pinned[s]);
    }
    for (unsigned io = 0; io < io_count; ++io) {
      io_threads.emplace_back([this, io] { io_main(io); });
      maybe_pin(shard_count + io, io_threads.back(), io_pinned[io]);
    }
    started = true;
  }

  void publish_stats() {
    std::vector<svc::CacheStats> stats;
    stats.reserve(caches.size());
    for (const auto& cache : caches) stats.push_back(cache->stats());
    svc::publish_shard_cache_stats(stats, config.cache_capacity);
    obs::MetricsRegistry& metrics = obs::MetricsRegistry::instance();
    metrics.gauge("reconf_net_io_threads").set(static_cast<double>(io_count));
    metrics.gauge("reconf_net_shards").set(static_cast<double>(shard_count));
    metrics.gauge("reconf_net_connections")
        .set(static_cast<double>(connections.load(std::memory_order_relaxed)));
    metrics.gauge("reconf_net_backend_epoll")
        .set(std::strcmp(backend_name.load(), "epoll") == 0 ? 1.0 : 0.0);
    for (std::size_t s = 0; s < pinned.size(); ++s) {
      metrics.gauge("reconf_net_shard_cpu{shard=\"" + std::to_string(s) +
                    "\"}")
          .set(static_cast<double>(pinned[s].load(std::memory_order_relaxed)));
    }
    for (std::size_t io = 0; io < io_pinned.size(); ++io) {
      metrics.gauge("reconf_net_io_cpu{io=\"" + std::to_string(io) + "\"}")
          .set(static_cast<double>(
              io_pinned[io].load(std::memory_order_relaxed)));
    }
  }
};

AsyncServer::AsyncServer(ServerConfig config)
    : impl_(std::make_unique<Impl>()) {
  impl_->config = std::move(config);
  impl_->io_count = std::max(1u, impl_->config.io_threads);
  impl_->shard_count =
      impl_->config.shards > 0
          ? impl_->config.shards
          : std::max(1u, std::thread::hardware_concurrency());

  const std::size_t per_shard_capacity =
      impl_->config.cache_capacity == 0
          ? 0
          : std::max<std::size_t>(
                1, impl_->config.cache_capacity / impl_->shard_count);
  impl_->caches.reserve(impl_->shard_count);
  for (unsigned s = 0; s < impl_->shard_count; ++s) {
    impl_->caches.push_back(
        std::make_unique<svc::ShardCache>(per_shard_capacity));
  }
  impl_->pinned = std::vector<std::atomic<int>>(impl_->shard_count);
  for (auto& p : impl_->pinned) p.store(-1, std::memory_order_relaxed);
  impl_->io_pinned = std::vector<std::atomic<int>>(impl_->io_count);
  for (auto& p : impl_->io_pinned) p.store(-1, std::memory_order_relaxed);

  impl_->requests.resize(impl_->io_count);
  for (unsigned io = 0; io < impl_->io_count; ++io) {
    for (unsigned s = 0; s < impl_->shard_count; ++s) {
      impl_->requests[io].push_back(std::make_unique<SpscRing<RequestMsg>>(
          impl_->config.ring_capacity));
    }
  }
  impl_->responses.resize(impl_->shard_count);
  for (unsigned s = 0; s < impl_->shard_count; ++s) {
    for (unsigned io = 0; io < impl_->io_count; ++io) {
      impl_->responses[s].push_back(std::make_unique<SpscRing<ResponseMsg>>(
          impl_->config.ring_capacity));
    }
    impl_->shard_parkers.push_back(std::make_unique<Parker>());
  }
  for (unsigned io = 0; io < impl_->io_count; ++io) {
    impl_->wakes.push_back(std::make_unique<WakePipe>());
    impl_->inboxes.push_back(std::make_unique<Impl::Inbox>());
  }
  impl_->fp_memo.resize(impl_->io_count);
  impl_->default_fp =
      analysis::AnalysisEngine(impl_->config.options.request).fingerprint();
}

AsyncServer::~AsyncServer() { stop(); }

bool AsyncServer::start(std::string* error) {
  RECONF_EXPECTS(!impl_->started);
  if (!impl_->open_wakes(error)) return false;
  std::uint16_t bound = 0;
  impl_->listen_fd =
      listen_tcp(impl_->config.host, impl_->config.port, &bound, error);
  if (impl_->listen_fd < 0) return false;
  port_ = bound;
  impl_->spawn();
  return true;
}

bool AsyncServer::adopt(int fd, std::string* error) {
  if (!impl_->started) {
    if (!impl_->open_wakes(error)) return false;
    impl_->spawn();
  }
  if (!set_nonblocking(fd)) {
    if (error != nullptr) *error = "cannot make the adopted fd nonblocking";
    return false;
  }
  impl_->wakes[impl_->hand_off(fd)]->notify();
  return true;
}

void AsyncServer::request_stop() noexcept {
  impl_->stop.store(true, std::memory_order_release);
}

bool AsyncServer::stopping() const noexcept {
  return impl_->stop.load(std::memory_order_acquire);
}

void AsyncServer::stop() {
  if (impl_->stopped_joined) return;
  impl_->stop.store(true, std::memory_order_release);
  // Parked threads self-heal within the Parker/poller 10ms backstop even
  // without these nudges; they just shorten the tail.
  for (auto& wake : impl_->wakes) {
    if (wake->fds[1] >= 0) wake->notify();
  }
  for (auto& parker : impl_->shard_parkers) parker->notify();
  for (std::thread& t : impl_->io_threads) {
    if (t.joinable()) t.join();
  }
  for (std::thread& t : impl_->shard_threads) {
    if (t.joinable()) t.join();
  }
  impl_->io_threads.clear();
  impl_->shard_threads.clear();
  if (impl_->listen_fd >= 0) {
    ::close(impl_->listen_fd);
    impl_->listen_fd = -1;
  }
  for (auto& wake : impl_->wakes) wake->close_fds();
  impl_->stopped_joined = true;
}

ServerTotals AsyncServer::totals() const {
  ServerTotals t;
  t.connections = impl_->connections.load(std::memory_order_relaxed);
  t.served = impl_->served.load(std::memory_order_relaxed);
  t.accepted = impl_->accepted.load(std::memory_order_relaxed);
  t.errors = impl_->errors.load(std::memory_order_relaxed);
  t.sheds = impl_->sheds.load(std::memory_order_relaxed);
  return t;
}

std::vector<svc::CacheStats> AsyncServer::shard_cache_stats() const {
  std::vector<svc::CacheStats> out;
  out.reserve(impl_->caches.size());
  for (const auto& cache : impl_->caches) out.push_back(cache->stats());
  return out;
}

svc::CacheStats AsyncServer::cache_stats() const {
  svc::CacheStats total;
  for (const svc::CacheStats& s : shard_cache_stats()) {
    total.hits += s.hits;
    total.misses += s.misses;
    total.insertions += s.insertions;
    total.evictions += s.evictions;
    total.entries += s.entries;
  }
  return total;
}

const char* AsyncServer::backend() const noexcept {
  return impl_->backend_name.load();
}

namespace {

std::vector<int> load_cpus(const std::vector<std::atomic<int>>& cells) {
  std::vector<int> out;
  out.reserve(cells.size());
  for (const auto& cell : cells) {
    out.push_back(cell.load(std::memory_order_relaxed));
  }
  return out;
}

}  // namespace

std::vector<int> AsyncServer::pinned_cpus() const {
  return load_cpus(impl_->pinned);
}

std::vector<int> AsyncServer::pinned_io_cpus() const {
  return load_cpus(impl_->io_pinned);
}

bool AsyncServer::load_cache_snapshot(const std::string& path,
                                      std::size_t* restored,
                                      std::string* error) {
  std::vector<svc::ShardCache*> shards;
  shards.reserve(impl_->caches.size());
  for (const auto& cache : impl_->caches) shards.push_back(cache.get());
  return svc::load_shard_snapshot(shards, path, restored, error);
}

bool AsyncServer::save_cache_snapshot(const std::string& path,
                                      std::string* error) {
  std::vector<svc::ShardCache*> shards;
  shards.reserve(impl_->caches.size());
  for (const auto& cache : impl_->caches) shards.push_back(cache.get());
  return svc::save_shard_snapshot(shards, path, error);
}

namespace {

/// Writes all of `data` to a blocking fd; false once the fd refuses.
/// Sockets use send(MSG_NOSIGNAL): a server that drained and closed its end
/// answers EPIPE instead of killing the process with SIGPIPE.
bool write_fully(int fd, const char* data, std::size_t n, bool is_socket) {
  while (n > 0) {
    const ssize_t w = is_socket ? ::send(fd, data, n, MSG_NOSIGNAL)
                                : ::write(fd, data, n);
    if (w < 0 && errno == EINTR) continue;
    if (w <= 0) return false;
    data += w;
    n -= static_cast<std::size_t>(w);
  }
  return true;
}

/// Copies `in_fd` into the server's socket until end of stream, a refused
/// write, or a stop. The 50 ms poll bound is what lets a drain finish while
/// `in_fd` stays open and silent: the loop never sits in read(2) on it.
void feed_stream(const AsyncServer& server, const std::atomic<bool>& done,
                 int in_fd, int sock) {
  std::vector<char> buf(kReadChunk);
  while (!done.load(std::memory_order_acquire) && !server.stopping()) {
    pollfd p{in_fd, POLLIN, 0};
    const int ready = ::poll(&p, 1, 50);
    if (ready == 0 || (ready < 0 && errno == EINTR)) continue;
    if (ready < 0) break;
    const ssize_t n = ::read(in_fd, buf.data(), buf.size());
    if (n < 0 && (errno == EINTR || errno == EAGAIN)) continue;
    if (n <= 0) break;  // end of stream (or a read error: treated alike)
    if (!write_fully(sock, buf.data(), static_cast<std::size_t>(n), true)) {
      break;
    }
  }
  ::shutdown(sock, SHUT_WR);  // the server sees end of stream
}

}  // namespace

bool serve_stdio(AsyncServer& server, int in_fd, int out_fd,
                 std::string* error) {
  int pair[2];
  if (::socketpair(AF_UNIX, SOCK_STREAM, 0, pair) != 0) {
    if (error != nullptr) *error = std::strerror(errno);
    return false;
  }
  if (!server.adopt(pair[0], error)) {
    ::close(pair[0]);
    ::close(pair[1]);
    return false;
  }
  const int sock = pair[1];
  std::atomic<bool> done{false};
  std::thread feeder([&] { feed_stream(server, done, in_fd, sock); });

  // Responses until the server closes its end: after the final answer at
  // end of stream, or once a drain has flushed. A refused write to out_fd
  // drains the server and discards the rest, so it never blocks on us.
  bool out_ok = true;
  std::vector<char> buf(kReadChunk);
  for (;;) {
    const ssize_t n = ::read(sock, buf.data(), buf.size());
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) break;
    if (out_ok && !write_fully(out_fd, buf.data(),
                               static_cast<std::size_t>(n), false)) {
      out_ok = false;
      if (error != nullptr) *error = "cannot write responses: " +
                                     std::string(std::strerror(errno));
      server.request_stop();
    }
  }
  done.store(true, std::memory_order_release);
  feeder.join();
  ::close(sock);
  return out_ok;
}

}  // namespace reconf::net

// Tests for the async serving tier (src/net/). Unit tests of its handshake
// primitives: the SPSC ring, the shard workers' Parker and the io threads'
// WakePipe, the last under concurrent producers. Socket-level integration
// tests: pipelined and fragmented NDJSON over real TCP connections and over the
// stdio entry (pipe and regular-file input), byte-compared against a
// single-process replay through the same evaluate_with_engine funnel;
// oversized/malformed line recovery; concurrent connections; snapshot
// topology portability (save under one shard count, warm-restore under
// another); core pinning; graceful EOF flush; the stdio drain on stop with
// stdin still open; and the poll(2) fallback backend selected via
// RECONF_NET_POLL=1; and a lone request after a pipelined burst answered
// at once, not at the io loop's 10 ms poll timeout.

#include <algorithm>
#include <atomic>
#include <cctype>
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <future>
#include <string>
#include <thread>
#include <vector>

#include <fcntl.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <gtest/gtest.h>

#include "net/poller.hpp"
#include "net/server.hpp"
#include "net/spsc_ring.hpp"
#include "obs/metrics.hpp"
#include "svc/batch.hpp"
#include "svc/codec.hpp"
#include "svc/shard_cache.hpp"

namespace reconf {
namespace {

// ---------------------------------------------- handshake primitives ----

TEST(SpscRing, FullEmptyAndWrap) {
  net::SpscRing<int> ring(3);  // rounded up to 4
  ASSERT_EQ(ring.capacity(), 4u);
  int out = -1;
  EXPECT_TRUE(ring.empty());
  EXPECT_FALSE(ring.try_pop(out));
  // Many laps of fill-to-full then drain-to-empty: the cursors wrap the
  // slot array while FIFO order and the full/empty answers hold.
  int next_in = 0;
  int next_out = 0;
  for (int lap = 0; lap < 50; ++lap) {
    for (std::size_t i = 0; i < ring.capacity(); ++i) {
      ASSERT_TRUE(ring.try_push(int{next_in++}));
    }
    int spare = -7;
    EXPECT_FALSE(ring.try_push(std::move(spare)));
    EXPECT_EQ(spare, -7) << "a failed push must not move from its argument";
    EXPECT_EQ(ring.size(), ring.capacity());
    // Pop part of it and refill, so head and tail sit at odd offsets.
    for (int i = 0; i < 3; ++i) {
      ASSERT_TRUE(ring.try_pop(out));
      EXPECT_EQ(out, next_out++);
    }
    ASSERT_TRUE(ring.try_push(int{next_in++}));
    while (ring.try_pop(out)) EXPECT_EQ(out, next_out++);
    EXPECT_TRUE(ring.empty());
    EXPECT_EQ(ring.size(), 0u);
  }
  EXPECT_EQ(next_out, next_in);
}

TEST(Parker, NotifyWakesParkedConsumer) {
  // Ping-pong: the producer publishes round r, then waits for the consumer
  // to acknowledge it. A pause before each publish lets the consumer park
  // first, so each round needs notify() to wake it. Rounds that fell back
  // on the 10 ms wait_for backstop would take over a second in total.
  constexpr int kRounds = 100;
  net::Parker parker;
  std::atomic<int> published{0};
  std::atomic<int> acked{0};
  const auto began = std::chrono::steady_clock::now();
  std::thread consumer([&] {
    for (int r = 1; r <= kRounds; ++r) {
      while (published.load(std::memory_order_acquire) < r) {
        parker.park(
            [&] { return published.load(std::memory_order_acquire) >= r; });
      }
      acked.store(r, std::memory_order_release);
    }
  });
  for (int r = 1; r <= kRounds; ++r) {
    std::this_thread::sleep_for(std::chrono::microseconds(200));
    published.store(r, std::memory_order_release);
    parker.notify();
    while (acked.load(std::memory_order_acquire) < r) {
      std::this_thread::yield();
    }
  }
  consumer.join();
  const auto elapsed = std::chrono::steady_clock::now() - began;
  EXPECT_LT(elapsed, std::chrono::milliseconds(kRounds * 10 / 2))
      << "rounds waited for the backstop instead of the notify";
}

TEST(Parker, StopPredicateReturns) {
  net::Parker parker;
  // A predicate that is already true returns at once, without sleeping.
  int calls = 0;
  parker.park([&] {
    ++calls;
    return true;
  });
  EXPECT_EQ(calls, 1);

  // A consumer parked until stop returns once stop is set and notified.
  std::atomic<bool> stop{false};
  std::atomic<bool> returned{false};
  std::thread consumer([&] {
    while (!stop.load(std::memory_order_acquire)) {
      parker.park([&] { return stop.load(std::memory_order_acquire); });
    }
    returned.store(true, std::memory_order_release);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  EXPECT_FALSE(returned.load(std::memory_order_acquire));
  stop.store(true, std::memory_order_release);
  parker.notify();
  consumer.join();
  EXPECT_TRUE(returned.load(std::memory_order_acquire));
}

TEST(WakePipe, NoNotifyIsLostUnderConcurrentDrains) {
  // Two producers, each with its own ring, push and notify after every
  // item, as shard workers do. The consumer, like an io thread, blocks in
  // poll() on the pipe, drains it, then pops both rings. An item found in
  // a ring after a poll that timed out was pushed and notified while the
  // consumer slept: its wake-up was lost.
  constexpr int kPerProducer = 100000;
  constexpr std::size_t kRingCap = 8;
  net::WakePipe wake;
  ASSERT_TRUE(wake.open());
  // Small rings keep the producers close behind the consumer, so most
  // drains race with a notify.
  net::SpscRing<int> rings[2] = {net::SpscRing<int>(kRingCap),
                                 net::SpscRing<int>(kRingCap)};
  std::vector<std::thread> producers;
  for (net::SpscRing<int>& ring : rings) {
    producers.emplace_back([&wake, &ring] {
      for (int i = 0; i < kPerProducer; ++i) {
        while (!ring.try_push(int{i})) std::this_thread::yield();
        wake.notify();
      }
    });
  }
  int next[2] = {0, 0};
  bool lost = false;
  while (next[0] < kPerProducer || next[1] < kPerProducer) {
    pollfd p{wake.fds[0], POLLIN, 0};
    const int ready = ::poll(&p, 1, 1000);
    if (ready > 0) wake.drain();
    bool popped = false;
    for (int r = 0; r < 2; ++r) {
      int item = -1;
      while (rings[r].try_pop(item)) {
        EXPECT_EQ(item, next[r]);
        ++next[r];
        popped = true;
      }
    }
    if (ready == 0 && popped) {
      lost = true;
      break;
    }
  }
  // After a failure, let the producers finish without waiting on the pipe.
  for (int r = 0; r < 2; ++r) {
    int item = -1;
    while (next[r] < kPerProducer) {
      if (rings[r].try_pop(item)) ++next[r];
    }
  }
  for (std::thread& t : producers) t.join();
  wake.close_fds();
  EXPECT_FALSE(lost) << "poll timed out with items queued: a notify was lost";
}

// ------------------------------------------------------------ helpers ----

/// A valid request line whose canonical hash is unique per `g` (same
/// mixed-radix scheme as tools/reconf_loadgen).
std::string request_line(std::uint64_t g, const std::string& id) {
  const unsigned c = static_cast<unsigned>(1 + g % 600);
  const unsigned a = static_cast<unsigned>(1 + (g / 600) % 60);
  std::string out = "{\"id\":\"" + id + "\",\"device\":100,\"tasks\":[{\"c\":";
  out += std::to_string(c);
  out += ",\"d\":700,\"t\":700,\"a\":";
  out += std::to_string(a);
  out += "},{\"c\":40,\"d\":500,\"t\":500,\"a\":7}]}";
  return out;
}

/// Blocking connect to a test server.
int must_connect(std::uint16_t port) {
  std::string error;
  const int fd = net::connect_tcp("127.0.0.1", port, &error);
  EXPECT_GE(fd, 0) << error;
  return fd;
}

void send_all(int fd, const std::string& data) {
  std::size_t off = 0;
  while (off < data.size()) {
    const ssize_t n = ::write(fd, data.data() + off, data.size() - off);
    ASSERT_GT(n, 0) << std::strerror(errno);
    off += static_cast<std::size_t>(n);
  }
}

/// Reads until `count` newline-terminated lines have arrived (or EOF).
std::vector<std::string> read_lines(int fd, std::size_t count) {
  std::vector<std::string> lines;
  std::string pending;
  char buf[16 * 1024];
  while (lines.size() < count) {
    const ssize_t n = ::read(fd, buf, sizeof buf);
    if (n <= 0) break;
    pending.append(buf, static_cast<std::size_t>(n));
    std::size_t at;
    while ((at = pending.find('\n')) != std::string::npos) {
      lines.push_back(pending.substr(0, at));
      pending.erase(0, at + 1);
    }
  }
  return lines;
}

/// Replaces every "micros":<number> with "micros":0 — analyzer wall times
/// are the one nondeterministic part of a verdict line.
std::string normalize_timing(std::string line) {
  static const std::string key = "\"micros\":";
  std::size_t at = 0;
  while ((at = line.find(key, at)) != std::string::npos) {
    std::size_t end = at + key.size();
    while (end < line.size() &&
           (std::isdigit(static_cast<unsigned char>(line[end])) != 0 ||
            line[end] == '.' || line[end] == '-' || line[end] == '+' ||
            line[end] == 'e')) {
      ++end;
    }
    line.replace(at, end - at, key + "0");
    at += key.size();
  }
  return line;
}

/// Single-process replay of one request line through the exact funnel the
/// shard workers use — default engine, or a custom one when the request
/// names its own analyzer lineup — the reference output for byte
/// comparison. A line over the codec cap is answered from its kept prefix.
std::string replay_line(const std::string& line,
                        const svc::BatchOptions& options,
                        const analysis::AnalysisEngine& engine,
                        svc::ShardCache* cache) {
  if (line.size() > svc::kMaxRequestLine) {
    return svc::format_error_line(
        svc::recover_request_id(line.substr(0, svc::kMaxRequestLine)),
        "bad request: line exceeds " +
            std::to_string(svc::kMaxRequestLine) + " bytes");
  }
  svc::BatchRequest request;
  try {
    request = svc::parse_request_line(line);
  } catch (const svc::CodecError& e) {
    return svc::format_error_line(e.id(), e.what());
  }
  svc::BatchVerdict v;
  if (request.tests.empty()) {
    v = svc::evaluate_with_engine(engine, request, cache);
  } else {
    analysis::AnalysisRequest custom = options.request;
    custom.tests = request.tests;
    v = svc::evaluate_with_engine(analysis::AnalysisEngine(custom), request,
                                  cache);
  }
  return svc::format_verdict_line(v, &request.taskset);
}

net::ServerConfig test_config(unsigned shards) {
  net::ServerConfig config;
  config.shards = shards;
  config.io_threads = 1;
  config.cache_capacity = 4096;
  return config;
}

struct TempDir {
  std::filesystem::path path;
  TempDir() {
    path = std::filesystem::temp_directory_path() /
           ("reconf_net_test_" + std::to_string(::getpid()));
    std::filesystem::create_directories(path);
  }
  ~TempDir() { std::filesystem::remove_all(path); }
};

// ------------------------------------------- replay parity over TCP ----

/// Byte-compares `got`, timing-normalized, against the same lines replayed
/// through the same funnel into one fresh cache. Duplicates of a key land
/// on one shard worker in send order, so the hit/miss pattern matches the
/// sequential replay exactly, whatever the shard count.
void expect_replay_parity(const net::ServerConfig& config,
                          const std::vector<std::string>& lines,
                          const std::vector<std::string>& got) {
  svc::ShardCache reference(config.cache_capacity);
  const analysis::AnalysisEngine engine(config.options.request);
  ASSERT_EQ(got.size(), lines.size());
  for (std::size_t i = 0; i < lines.size(); ++i) {
    EXPECT_EQ(normalize_timing(got[i]),
              normalize_timing(
                  replay_line(lines[i], config.options, engine, &reference)))
        << "line " << i;
  }
}

/// Sends `lines` over one connection in deliberately awkward fragments
/// (split mid-line every `frag` bytes) and byte-compares the responses,
/// timing-normalized, against the single-process replay.
void run_parity(const net::ServerConfig& config,
                const std::vector<std::string>& lines, std::size_t frag) {
  net::AsyncServer server(config);
  std::string error;
  ASSERT_TRUE(server.start(&error)) << error;

  std::string wire;
  for (const std::string& line : lines) wire += line + "\n";

  const int fd = must_connect(server.port());
  std::thread writer([&] {
    for (std::size_t off = 0; off < wire.size(); off += frag) {
      send_all(fd, wire.substr(off, frag));
    }
    ::shutdown(fd, SHUT_WR);
  });
  const std::vector<std::string> got = read_lines(fd, lines.size());
  writer.join();
  ::close(fd);
  server.stop();

  expect_replay_parity(config, lines, got);
}

std::vector<std::string> parity_workload() {
  std::vector<std::string> lines;
  for (std::uint64_t g = 0; g < 40; ++g) {
    lines.push_back(request_line(g, "u" + std::to_string(g)));
  }
  // Duplicates — must come back "cache":"hit" from the owning shard,
  // bit-identical to the sequential replay's answer.
  lines.push_back(request_line(3, "dup-a"));
  lines.push_back(request_line(17, "dup-b"));
  lines.push_back(request_line(3, "dup-c"));
  // Malformed: parse error with the id recovered from the broken line.
  lines.push_back("{\"id\":\"bad-1\",\"device\":100,\"tasks\":17}");
  lines.push_back("not json at all");
  // Custom analyzer lineup exercises the per-shard custom-engine map.
  lines.push_back(
      "{\"id\":\"lineup\",\"device\":100,\"tests\":[\"dp\"],"
      "\"tasks\":[{\"c\":10,\"d\":700,\"t\":700,\"a\":9}]}");
  lines.push_back(request_line(17, "dup-d"));
  return lines;
}

TEST(NetServer, PipelinedRepliesMatchSingleProcessReplay) {
  run_parity(test_config(3), parity_workload(), 64 * 1024);
}

TEST(NetServer, FragmentedWritesReassembleIdentically) {
  // 7-byte fragments tear every line across many reads.
  run_parity(test_config(2), parity_workload(), 7);
}

TEST(NetServer, PollFallbackBackendServesIdentically) {
  ::setenv("RECONF_NET_POLL", "1", 1);
  net::ServerConfig config = test_config(2);
  {
    net::AsyncServer probe(config);
    std::string error;
    ASSERT_TRUE(probe.start(&error)) << error;
    EXPECT_STREQ(probe.backend(), "poll");
    probe.stop();
  }
  run_parity(config, parity_workload(), 1024);
  ::unsetenv("RECONF_NET_POLL");
}

TEST(NetServer, OversizedLineAnswersErrorAndRecovers) {
  net::AsyncServer server(test_config(2));
  std::string error;
  ASSERT_TRUE(server.start(&error)) << error;

  std::string huge = "{\"id\":\"toobig\",\"device\":100,\"tasks\":[";
  huge.append(svc::kMaxRequestLine + 1024, ' ');
  huge += "]}";

  const int fd = must_connect(server.port());
  std::thread writer([&] {
    send_all(fd, huge + "\n" + request_line(1, "after") + "\n");
    ::shutdown(fd, SHUT_WR);
  });
  const std::vector<std::string> got = read_lines(fd, 2);
  writer.join();
  ::close(fd);
  server.stop();

  ASSERT_EQ(got.size(), 2u);
  // The oversized line is answered as a correlated error (the id is in the
  // retained prefix), and the connection keeps serving afterwards.
  EXPECT_NE(got[0].find("\"id\":\"toobig\""), std::string::npos) << got[0];
  EXPECT_NE(got[0].find("\"error\":"), std::string::npos) << got[0];
  EXPECT_NE(got[1].find("\"id\":\"after\""), std::string::npos) << got[1];
  EXPECT_NE(got[1].find("\"verdict\":"), std::string::npos) << got[1];
}

// ------------------------------------------------- concurrency and EOF ----

TEST(NetServer, ConcurrentConnectionsKeepPerConnectionOrder) {
  net::ServerConfig config = test_config(4);
  net::AsyncServer server(config);
  std::string error;
  ASSERT_TRUE(server.start(&error)) << error;

  constexpr unsigned kConns = 8;
  constexpr std::uint64_t kPerConn = 50;
  std::vector<std::vector<std::string>> replies(kConns);
  {
    std::vector<std::thread> clients;
    for (unsigned c = 0; c < kConns; ++c) {
      clients.emplace_back([&, c] {
        const int fd = must_connect(server.port());
        std::string wire;
        for (std::uint64_t i = 0; i < kPerConn; ++i) {
          // Half the keys are shared across connections (cross-conn cache
          // traffic on the owning shards), half are private.
          const std::uint64_t g = (i % 2 == 0) ? i : 1000 + c * kPerConn + i;
          wire += request_line(
              g, "c" + std::to_string(c) + "-" + std::to_string(i));
          wire += '\n';
        }
        send_all(fd, wire);
        ::shutdown(fd, SHUT_WR);
        replies[c] = read_lines(fd, kPerConn);
        ::close(fd);
      });
    }
    for (std::thread& t : clients) t.join();
  }
  server.stop();

  for (unsigned c = 0; c < kConns; ++c) {
    ASSERT_EQ(replies[c].size(), kPerConn) << "connection " << c;
    for (std::uint64_t i = 0; i < kPerConn; ++i) {
      const std::string id =
          "\"id\":\"c" + std::to_string(c) + "-" + std::to_string(i) + "\"";
      EXPECT_NE(replies[c][i].find(id), std::string::npos)
          << "conn " << c << " response " << i << " out of order: "
          << replies[c][i];
      EXPECT_NE(replies[c][i].find("\"verdict\":"), std::string::npos);
    }
  }
  const net::ServerTotals totals = server.totals();
  EXPECT_EQ(totals.connections, kConns);
  EXPECT_EQ(totals.served, kConns * kPerConn);
}

TEST(NetServer, FinalLineWithoutNewlineIsAnsweredAtEof) {
  net::AsyncServer server(test_config(2));
  std::string error;
  ASSERT_TRUE(server.start(&error)) << error;

  const int fd = must_connect(server.port());
  send_all(fd, request_line(5, "no-newline"));  // note: no trailing '\n'
  ::shutdown(fd, SHUT_WR);
  const std::vector<std::string> got = read_lines(fd, 1);
  ::close(fd);
  server.stop();

  ASSERT_EQ(got.size(), 1u);
  EXPECT_NE(got[0].find("\"id\":\"no-newline\""), std::string::npos) << got[0];
  EXPECT_NE(got[0].find("\"verdict\":"), std::string::npos) << got[0];
}

TEST(NetServer, StatsRequestAnsweredInStreamOrder) {
  net::AsyncServer server(test_config(2));
  std::string error;
  ASSERT_TRUE(server.start(&error)) << error;

  const int fd = must_connect(server.port());
  send_all(fd, request_line(2, "before") + "\n" +
                   "{\"id\":\"snap\",\"stats\":true}\n" +
                   request_line(9, "later") + "\n");
  ::shutdown(fd, SHUT_WR);
  const std::vector<std::string> got = read_lines(fd, 3);
  ::close(fd);
  server.stop();

  ASSERT_EQ(got.size(), 3u);
  EXPECT_NE(got[0].find("\"id\":\"before\""), std::string::npos);
  EXPECT_NE(got[1].find("\"id\":\"snap\""), std::string::npos) << got[1];
  EXPECT_NE(got[1].find("\"stats\":"), std::string::npos) << got[1];
  // The snapshot reflects the request answered before it on this stream.
  EXPECT_NE(got[1].find("reconf_svc_requests_total"), std::string::npos)
      << got[1];
  EXPECT_NE(got[2].find("\"id\":\"later\""), std::string::npos);
}

TEST(NetServer, ShedModeAnswersEveryRequest) {
  net::ServerConfig config = test_config(1);
  config.ring_capacity = 4;  // tiny ring forces the overload path
  config.shed_on_overload = true;
  net::AsyncServer server(config);
  std::string error;
  ASSERT_TRUE(server.start(&error)) << error;

  constexpr std::uint64_t kCount = 400;
  std::string wire;
  for (std::uint64_t i = 0; i < kCount; ++i) {
    wire += request_line(i, "s" + std::to_string(i)) + "\n";
  }
  const int fd = must_connect(server.port());
  std::thread writer([&] {
    send_all(fd, wire);
    ::shutdown(fd, SHUT_WR);
  });
  const std::vector<std::string> got = read_lines(fd, kCount);
  writer.join();
  ::close(fd);
  server.stop();

  // Overload may shed any subset, but every request gets exactly one
  // response, in order, and a shed is marked as such — never dropped.
  ASSERT_EQ(got.size(), kCount);
  std::uint64_t verdicts = 0;
  std::uint64_t sheds = 0;
  for (std::uint64_t i = 0; i < kCount; ++i) {
    const std::string id = "\"id\":\"s" + std::to_string(i) + "\"";
    ASSERT_NE(got[i].find(id), std::string::npos) << got[i];
    if (got[i].find("\"verdict\":") != std::string::npos) {
      ++verdicts;
    } else if (got[i].find("\"shed\":\"queue\"") != std::string::npos) {
      ++sheds;
    } else {
      FAIL() << "unexpected response: " << got[i];
    }
  }
  EXPECT_EQ(verdicts + sheds, kCount);
  EXPECT_EQ(server.totals().sheds, sheds);
}

/// Sends `lines` on `fd`, pipelined with at most `window` unanswered, and
/// returns the answers.
std::vector<std::string> send_windowed(int fd,
                                       const std::vector<std::string>& lines,
                                       std::size_t window) {
  std::vector<std::string> got;
  std::string pending;
  char buf[16 * 1024];
  std::size_t sent = 0;
  while (got.size() < lines.size()) {
    std::string wire;
    while (sent < lines.size() && sent - got.size() < window) {
      wire += lines[sent++] + "\n";
    }
    if (!wire.empty()) send_all(fd, wire);
    const ssize_t n = ::read(fd, buf, sizeof buf);
    if (n <= 0) break;
    pending.append(buf, static_cast<std::size_t>(n));
    std::size_t at;
    while ((at = pending.find('\n')) != std::string::npos) {
      got.push_back(pending.substr(0, at));
      pending.erase(0, at + 1);
    }
  }
  return got;
}

/// A pipelined burst on two connections (32 in flight on each), then lone
/// requests one at a time, each timed from send to answer. Returns the
/// median round trip; `lines` and `got` receive every request and answer.
std::chrono::microseconds lone_rtt_after_burst(
    const net::ServerConfig& config, std::vector<std::string>& lines,
    std::vector<std::string>& got) {
  constexpr std::uint64_t kBurstPerConn = 10000;
  constexpr std::uint64_t kLone = 50;
  net::AsyncServer server(config);
  std::string error;
  EXPECT_TRUE(server.start(&error)) << error;
  const int fds[2] = {must_connect(server.port()),
                      must_connect(server.port())};

  // Distinct keys everywhere, so no answer depends on which connection's
  // request reached the cache first.
  std::vector<std::string> burst[2];
  std::vector<std::string> burst_got[2];
  std::vector<std::thread> clients;
  for (unsigned c = 0; c < 2; ++c) {
    for (std::uint64_t i = 0; i < kBurstPerConn; ++i) {
      burst[c].push_back(request_line(c * kBurstPerConn + i,
                                      "b" + std::to_string(c) + "-" +
                                          std::to_string(i)));
    }
    clients.emplace_back(
        [&, c] { burst_got[c] = send_windowed(fds[c], burst[c], 32); });
  }
  for (std::thread& t : clients) t.join();
  for (unsigned c = 0; c < 2; ++c) {
    lines.insert(lines.end(), burst[c].begin(), burst[c].end());
    got.insert(got.end(), burst_got[c].begin(), burst_got[c].end());
  }

  std::vector<std::chrono::microseconds> rtts;
  for (std::uint64_t i = 0; i < kLone; ++i) {
    const std::string line =
        request_line(2 * kBurstPerConn + i, "lone" + std::to_string(i));
    const auto sent = std::chrono::steady_clock::now();
    const std::vector<std::string> answer =
        send_windowed(fds[i % 2], {line}, 1);
    rtts.push_back(std::chrono::duration_cast<std::chrono::microseconds>(
        std::chrono::steady_clock::now() - sent));
    lines.push_back(line);
    got.insert(got.end(), answer.begin(), answer.end());
  }
  for (const int fd : fds) ::close(fd);
  server.stop();
  std::sort(rtts.begin(), rtts.end());
  return rtts[rtts.size() / 2];
}

TEST(NetServer, LoneRequestAfterBurstIsAnsweredPromptly) {
  // After a burst, shard answers to a lone request must wake the io thread
  // through its wake pipe. A lost wake-up leaves the answer until the io
  // loop's 10 ms poll timeout, which puts the median round trip at >= 10 ms.
  for (const bool poll_backend : {false, true}) {
    if (poll_backend) ::setenv("RECONF_NET_POLL", "1", 1);
    const net::ServerConfig config = test_config(2);
    std::vector<std::string> lines;
    std::vector<std::string> got;
    const std::chrono::microseconds median =
        lone_rtt_after_burst(config, lines, got);
    if (poll_backend) ::unsetenv("RECONF_NET_POLL");
    SCOPED_TRACE(poll_backend ? "poll backend" : "default backend");
    EXPECT_LT(median, std::chrono::milliseconds(5));
    expect_replay_parity(config, lines, got);
  }
}

// ------------------------------------------- snapshot topology change ----

TEST(NetServer, SnapshotWarmRestoreAcrossShardCounts) {
  TempDir dir;
  const std::string snap = (dir.path / "verdicts.snap").string();

  // Serve under 3 shards, save the merged snapshot.
  {
    net::AsyncServer server(test_config(3));
    std::string error;
    ASSERT_TRUE(server.start(&error)) << error;
    const int fd = must_connect(server.port());
    std::string wire;
    for (std::uint64_t g = 0; g < 30; ++g) {
      wire += request_line(g, "w" + std::to_string(g)) + "\n";
    }
    send_all(fd, wire);
    ::shutdown(fd, SHUT_WR);
    EXPECT_EQ(read_lines(fd, 30).size(), 30u);
    ::close(fd);
    server.stop();
    ASSERT_TRUE(server.save_cache_snapshot(snap, &error)) << error;
  }

  // Restore under 5 shards: every key must be rehashed to its new owner,
  // so each replayed request is a hit.
  {
    net::AsyncServer server(test_config(5));
    std::string error;
    std::size_t restored = 0;
    ASSERT_TRUE(server.load_cache_snapshot(snap, &restored, &error)) << error;
    EXPECT_EQ(restored, 30u);
    ASSERT_TRUE(server.start(&error)) << error;
    const int fd = must_connect(server.port());
    std::string wire;
    for (std::uint64_t g = 0; g < 30; ++g) {
      wire += request_line(g, "r" + std::to_string(g)) + "\n";
    }
    send_all(fd, wire);
    ::shutdown(fd, SHUT_WR);
    const std::vector<std::string> got = read_lines(fd, 30);
    ::close(fd);
    server.stop();
    ASSERT_EQ(got.size(), 30u);
    for (const std::string& line : got) {
      EXPECT_NE(line.find("\"cache\":\"hit\""), std::string::npos) << line;
    }
    const svc::CacheStats stats = server.cache_stats();
    EXPECT_EQ(stats.hits, 30u);
    EXPECT_EQ(stats.misses, 0u);
  }
}

// ----------------------------------------------------------- pinning ----

TEST(NetServer, PinCoresReportsShardCpus) {
  net::ServerConfig config = test_config(2);
  config.pin_cores = true;
  net::AsyncServer server(config);
  std::string error;
  ASSERT_TRUE(server.start(&error)) << error;
  const std::vector<int> cpus = server.pinned_cpus();
  const std::vector<int> io_cpus = server.pinned_io_cpus();
  ASSERT_EQ(cpus.size(), 2u);
  ASSERT_EQ(io_cpus.size(), 1u);

  // A stats request publishes the gauges.
  const int fd = must_connect(server.port());
  send_all(fd, "{\"id\":\"snap\",\"stats\":true}\n");
  ASSERT_EQ(read_lines(fd, 1).size(), 1u);
  ::close(fd);
  server.stop();
  const double io_gauge =
      obs::MetricsRegistry::instance().gauge("reconf_net_io_cpu{io=\"0\"}")
          .value();

#if defined(__linux__)
  // Shard s on core s, then io thread k on core shards + k (mod cores).
  const int cores =
      static_cast<int>(std::max(1u, std::thread::hardware_concurrency()));
  for (std::size_t shard = 0; shard < cpus.size(); ++shard) {
    EXPECT_EQ(cpus[shard], static_cast<int>(shard) % cores);
  }
  EXPECT_EQ(io_cpus[0], 2 % cores);
#else
  for (const int cpu : cpus) EXPECT_EQ(cpu, -1);
  EXPECT_EQ(io_cpus[0], -1);
#endif
  if (obs::enabled()) {
    EXPECT_EQ(io_gauge, static_cast<double>(io_cpus[0]));
  }
}

// -------------------------------------------------------- stdio entry ----

/// The stdio workload: the TCP parity lines, an oversized line, and a final
/// line without a trailing newline.
std::vector<std::string> stdio_workload() {
  std::vector<std::string> lines = parity_workload();
  std::string huge = "{\"id\":\"toobig\",\"device\":100,\"tasks\":[";
  huge.append(svc::kMaxRequestLine + 1024, ' ');
  huge += "]}";
  lines.push_back(std::move(huge));
  lines.push_back(request_line(3, "last-no-newline"));
  return lines;
}

std::string stdio_wire(const std::vector<std::string>& lines) {
  std::string wire;
  for (std::size_t i = 0; i < lines.size(); ++i) {
    wire += lines[i];
    if (i + 1 < lines.size()) wire += '\n';
  }
  return wire;
}

/// Serves `in_fd` through the stdio entry into a regular file and returns
/// the response lines.
std::vector<std::string> serve_stdio_lines(const net::ServerConfig& config,
                                           int in_fd, const TempDir& dir) {
  const std::string out_path = (dir.path / "responses.ndjson").string();
  const int out_fd = ::open(out_path.c_str(), O_WRONLY | O_CREAT | O_TRUNC,
                            0644);
  EXPECT_GE(out_fd, 0) << std::strerror(errno);
  net::AsyncServer server(config);
  std::string error;
  EXPECT_TRUE(net::serve_stdio(server, in_fd, out_fd, &error)) << error;
  server.stop();
  ::close(out_fd);
  EXPECT_EQ(server.totals().connections, 1u);

  std::vector<std::string> lines;
  std::ifstream in(out_path);
  std::string line;
  while (std::getline(in, line)) lines.push_back(line);
  return lines;
}

TEST(NetServer, StdioPipeInputMatchesSingleProcessReplay) {
  TempDir dir;
  const std::vector<std::string> lines = stdio_workload();
  const std::string wire = stdio_wire(lines);
  for (const unsigned shards : {1u, 3u}) {
    int pipe_fds[2];
    ASSERT_EQ(::pipe(pipe_fds), 0);
    std::thread writer([&] {
      send_all(pipe_fds[1], wire);
      ::close(pipe_fds[1]);
    });
    const net::ServerConfig config = test_config(shards);
    const std::vector<std::string> got =
        serve_stdio_lines(config, pipe_fds[0], dir);
    writer.join();
    ::close(pipe_fds[0]);
    SCOPED_TRACE("shards=" + std::to_string(shards));
    expect_replay_parity(config, lines, got);
  }
}

TEST(NetServer, StdioRegularFileInputMatchesSingleProcessReplay) {
  // A regular file is what `reconf_serve FILE` and `< FILE` hand over; epoll
  // refuses it, so the entry must never register it with the poller.
  TempDir dir;
  const std::vector<std::string> lines = stdio_workload();
  const std::string in_path = (dir.path / "requests.ndjson").string();
  std::ofstream(in_path, std::ios::binary) << stdio_wire(lines);
  for (const unsigned shards : {1u, 3u}) {
    const int in_fd = ::open(in_path.c_str(), O_RDONLY);
    ASSERT_GE(in_fd, 0) << std::strerror(errno);
    const net::ServerConfig config = test_config(shards);
    const std::vector<std::string> got =
        serve_stdio_lines(config, in_fd, dir);
    ::close(in_fd);
    SCOPED_TRACE("shards=" + std::to_string(shards));
    expect_replay_parity(config, lines, got);
  }
}

TEST(NetServer, StdioStopDrainsWithoutWaitingForEof) {
  int in[2];
  int out[2];
  ASSERT_EQ(::pipe(in), 0);
  ASSERT_EQ(::pipe(out), 0);
  // One request, and the write end stays open: stdin never reaches EOF.
  send_all(in[1], request_line(4, "held") + "\n");

  net::AsyncServer server(test_config(2));
  std::future<bool> served = std::async(std::launch::async, [&] {
    std::string error;
    return net::serve_stdio(server, in[0], out[1], &error);
  });
  const std::vector<std::string> got = read_lines(out[0], 1);
  ASSERT_EQ(got.size(), 1u);
  EXPECT_NE(got[0].find("\"id\":\"held\""), std::string::npos) << got[0];
  EXPECT_NE(got[0].find("\"verdict\":"), std::string::npos) << got[0];

  server.request_stop();
  const bool returned =
      served.wait_for(std::chrono::seconds(1)) == std::future_status::ready;
  if (!returned) ::close(in[1]);  // let a failing entry finish at EOF
  EXPECT_TRUE(returned) << "stdio entry still blocked 1 s after the stop";
  EXPECT_TRUE(served.get());
  server.stop();
  if (returned) ::close(in[1]);
  for (const int fd : {in[0], out[0], out[1]}) ::close(fd);
}

TEST(NetServer, StdioOnAStoppedServerReturnsAtOnce) {
  // A stop that lands before or while the stdio connection is adopted (a
  // signal at startup) must still close it, never leave the entry waiting.
  for (const bool joined : {false, true}) {
    int in[2];
    int out[2];
    ASSERT_EQ(::pipe(in), 0);
    ASSERT_EQ(::pipe(out), 0);
    send_all(in[1], request_line(6, "late") + "\n");
    net::AsyncServer server(test_config(2));
    if (joined) {
      std::string error;
      ASSERT_TRUE(server.start(&error)) << error;
      server.stop();
    } else {
      server.request_stop();
    }
    std::future<bool> served = std::async(std::launch::async, [&] {
      std::string error;
      return net::serve_stdio(server, in[0], out[1], &error);
    });
    const bool returned =
        served.wait_for(std::chrono::seconds(1)) == std::future_status::ready;
    if (!returned) ::close(in[1]);
    EXPECT_TRUE(returned) << "joined=" << joined;
    EXPECT_TRUE(served.get());
    server.stop();
    if (returned) ::close(in[1]);
    ::close(out[1]);
    EXPECT_TRUE(read_lines(out[0], 1).empty()) << "joined=" << joined;
    ::close(in[0]);
    ::close(out[0]);
  }
}

}  // namespace
}  // namespace reconf

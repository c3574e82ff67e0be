#include "wire.hpp"

#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <algorithm>
#include <charconv>
#include <cstring>
#include <deque>
#include <filesystem>
#include <fstream>
#include <thread>

#include "net/poller.hpp"
#include "svc/codec.hpp"
#include "svc/json.hpp"

namespace perfbench {

namespace {

/// After a load phase's window, how long drive() waits for outstanding
/// answers before it counts them unanswered.
constexpr double kDrainSeconds = 5.0;
/// How long exchange() waits for its one answer.
constexpr std::int64_t kExchangeTimeoutNs = 5'000'000'000;

/// Value of `"key":"...` (string) in `line`, or an empty view.
std::string_view string_field(std::string_view line, std::string_view key) {
  std::string pattern = "\"";
  pattern += key;
  pattern += "\":\"";
  const std::size_t at = line.find(pattern);
  if (at == std::string_view::npos) return {};
  const std::size_t begin = at + pattern.size();
  const std::size_t end = line.find('"', begin);
  if (end == std::string_view::npos) return {};
  return line.substr(begin, end - begin);
}

std::string_view intern_analyzer(std::string_view id) {
  static constexpr std::string_view kKnown[] = {"dp", "gn1", "gn2"};
  for (std::string_view known : kKnown) {
    if (id == known) return known;
  }
  return id.empty() ? std::string_view{} : std::string_view{"other"};
}

struct Pending {
  std::uint64_t index = 0;
  std::int64_t intended = 0;
  std::int64_t appended = 0;
  std::int64_t sent = 0;
  std::size_t end_offset = 0;  ///< stream offset just past this line
};

struct Conn {
  int fd = -1;
  std::string out;
  std::size_t out_off = 0;
  std::size_t written = 0;   ///< bytes written over the connection's life
  std::deque<Pending> inflight;
  std::size_t sent_upto = 0;  ///< inflight entries fully written
  reconf::svc::StreamFramer framer;
  bool dead = false;
};

void set_sndbuf(int fd, int bytes) {
  if (bytes > 0) ::setsockopt(fd, SOL_SOCKET, SO_SNDBUF, &bytes, sizeof bytes);
}

}  // namespace

Response parse_response(std::string_view line) {
  Response r;
  const std::string_view id = string_field(line, "id");
  if (!id.empty()) {
    const auto [ptr, ec] = std::from_chars(id.data(), id.data() + id.size(), r.id);
    r.id_ok = ec == std::errc{} && ptr == id.data() + id.size();
  }
  const std::string_view verdict = string_field(line, "verdict");
  if (!verdict.empty()) {
    r.verdict = true;
    r.accepted = verdict == "schedulable";
    r.accepted_by = intern_analyzer(string_field(line, "accepted_by"));
    r.cache_hit = string_field(line, "cache") == "hit";
    const std::string_view hash = string_field(line, "hash");
    std::from_chars(hash.data(), hash.data() + hash.size(), r.hash, 16);
  }
  return r;
}

DriveResult drive(const DriveConfig& config, const LineFn& line) {
  DriveResult result;
  std::vector<Conn> conns(config.connections);
  for (Conn& c : conns) {
    std::string error;
    c.fd = reconf::net::connect_tcp("127.0.0.1", config.port, &error);
    if (c.fd < 0 || !reconf::net::set_nonblocking(c.fd)) {
      result.error = error.empty() ? "cannot connect" : error;
      for (Conn& d : conns) {
        if (d.fd >= 0) ::close(d.fd);
      }
      return result;
    }
    set_sndbuf(c.fd, config.sndbuf);
  }

  const bool open_loop = config.rate > 0.0;
  const double period_ns = open_loop ? 1e9 / config.rate : 0.0;
  std::uint64_t next = config.first_index;
  std::uint64_t issued = 0;
  std::size_t outstanding = 0;
  const std::int64_t start = now_ns();
  const std::int64_t window_end =
      start + static_cast<std::int64_t>(config.seconds * 1e9);
  result.start_ns = start;
  result.end_ns = window_end;

  auto may_issue = [&] {
    return config.max_requests == 0 || issued < config.max_requests;
  };
  auto enqueue = [&](Conn& c, std::int64_t intended, std::int64_t now) {
    line(next, c.out);
    c.inflight.push_back({next, intended, now, 0, c.written + (c.out.size() - c.out_off)});
    ++next;
    ++issued;
    ++outstanding;
  };

  if (!open_loop) {
    const std::int64_t now = now_ns();
    for (unsigned d = 0; d < config.depth; ++d) {
      for (Conn& c : conns) {
        if (may_issue()) enqueue(c, now, now);
      }
    }
  }

  std::vector<pollfd> pfds(conns.size());
  std::string text;
  reconf::svc::LineStatus status;
  char buf[64 * 1024];
  std::int64_t drain_deadline = 0;

  for (;;) {
    std::int64_t now = now_ns();
    const bool window_open = now < window_end && may_issue();
    if (open_loop) {
      // Queue everything the schedule says is due; a late generator shows
      // up as appended - intended.
      while (may_issue()) {
        const std::int64_t intended =
            start + static_cast<std::int64_t>(static_cast<double>(issued) * period_ns);
        if (intended > now || intended >= window_end) break;
        enqueue(conns[issued % conns.size()], intended, now);
      }
    }
    if (!window_open && outstanding == 0) break;
    if (!window_open) {
      if (drain_deadline == 0) {
        drain_deadline = now + static_cast<std::int64_t>(kDrainSeconds * 1e9);
      } else if (now >= drain_deadline) {
        break;
      }
    }

    // Write what is queued.
    for (Conn& c : conns) {
      while (!c.dead && c.out_off < c.out.size()) {
        const ssize_t n = ::send(c.fd, c.out.data() + c.out_off,
                                 c.out.size() - c.out_off, MSG_NOSIGNAL);
        if (n > 0) {
          c.out_off += static_cast<std::size_t>(n);
          c.written += static_cast<std::size_t>(n);
          continue;
        }
        if (n < 0 && (errno == EAGAIN || errno == EINTR)) break;
        c.dead = true;
        result.error = std::string("send: ") + std::strerror(errno);
      }
      if (c.out_off == c.out.size()) {
        c.out.clear();
        c.out_off = 0;
      }
      const std::int64_t t = now_ns();
      while (c.sent_upto < c.inflight.size() &&
             c.inflight[c.sent_upto].end_offset <= c.written) {
        c.inflight[c.sent_upto++].sent = t;
      }
    }

    // Wait for answers, the next send slot, or writability — or, when
    // spinning, only look.
    std::int64_t wait_ns = config.spin ? 0 : 10'000'000;
    if (open_loop && window_open && !config.spin) {
      const std::int64_t intended =
          start + static_cast<std::int64_t>(static_cast<double>(issued) * period_ns);
      wait_ns = std::max<std::int64_t>(0, intended - now_ns());
    }
    for (std::size_t k = 0; k < conns.size(); ++k) {
      pfds[k].fd = conns[k].dead ? -1 : conns[k].fd;
      pfds[k].events = static_cast<short>(
          POLLIN | (conns[k].out_off < conns[k].out.size() ? POLLOUT : 0));
      pfds[k].revents = 0;
    }
    if (wait_ns > 0) {
      const timespec ts{static_cast<time_t>(wait_ns / 1'000'000'000),
                        static_cast<long>(wait_ns % 1'000'000'000)};
      ::ppoll(pfds.data(), pfds.size(), &ts, nullptr);
    }

    // Read answers; responses arrive in request order per connection.
    for (std::size_t k = 0; k < conns.size(); ++k) {
      Conn& c = conns[k];
      while (!c.dead) {
        const ssize_t n = ::recv(c.fd, buf, sizeof buf, 0);
        if (n < 0 && (errno == EAGAIN || errno == EINTR)) break;
        if (n <= 0) {
          c.dead = true;
          if (!c.inflight.empty()) {
            result.error = n == 0 ? "server closed the connection"
                                  : std::string("recv: ") + std::strerror(errno);
          }
          break;
        }
        const std::int64_t received = now_ns();
        c.framer.feed(buf, static_cast<std::size_t>(n));
        while (c.framer.next(text, status)) {
          if (c.inflight.empty()) {
            result.error = "more answers than requests";
            c.dead = true;
            break;
          }
          const Pending p = c.inflight.front();
          c.inflight.pop_front();
          if (c.sent_upto > 0) --c.sent_upto;
          --outstanding;
          Sample s;
          s.index = p.index;
          s.intended_ns = p.intended;
          s.appended_ns = p.appended;
          s.sent_ns = p.sent != 0 ? p.sent : received;
          s.received_ns = received;
          s.response = parse_response(text);
          result.samples.push_back(s);
          if (!open_loop && received < window_end && may_issue()) {
            enqueue(c, received, received);
          }
        }
      }
    }
    bool all_dead = true;
    for (const Conn& c : conns) all_dead = all_dead && c.dead;
    if (all_dead) break;
  }

  result.attempted = issued;
  result.unanswered = outstanding;
  result.next_index = next;
  for (Conn& c : conns) ::close(c.fd);
  return result;
}

std::string exchange(std::uint16_t port, const std::string& line) {
  std::string error;
  const int fd = reconf::net::connect_tcp("127.0.0.1", port, &error);
  if (fd < 0) return {};
  std::string out;
  if (::send(fd, line.data(), line.size(), MSG_NOSIGNAL) ==
      static_cast<ssize_t>(line.size())) {
    reconf::svc::StreamFramer framer;
    reconf::svc::LineStatus status;
    const std::int64_t deadline = now_ns() + kExchangeTimeoutNs;
    char buf[64 * 1024];
    while (now_ns() < deadline) {
      pollfd pfd{fd, POLLIN, 0};
      if (::poll(&pfd, 1, 10) <= 0) continue;
      const ssize_t n = ::recv(fd, buf, sizeof buf, 0);
      if (n <= 0) break;
      framer.feed(buf, static_cast<std::size_t>(n));
      if (framer.next(out, status)) break;
    }
  }
  ::close(fd);
  return out;
}

bool ServerProcess::start(const ServerConfig& config,
                          const std::string& first_line, double* setup_s,
                          std::string* error) {
  static int launches = 0;
  const std::string port_file = config.work_dir + "/port-" +
                                std::to_string(::getpid()) + "-" +
                                std::to_string(launches++);
  ::unlink(port_file.c_str());
  const std::int64_t t0 = now_ns();
  std::vector<std::string> argv{config.exe, "--listen=127.0.0.1:0",
                     "--port-file=" + port_file,
                     "--io-threads=" + std::to_string(kIoThreads),
                     "--shards=" + std::to_string(kShards)};
  if (!child_.spawn(argv, config.work_dir + "/reconf_serve.log", error, config.cpus)) {
    return false;
  }
  port_ = 0;
  while (port_ == 0) {
    std::ifstream in(port_file);
    std::string text;
    if (std::getline(in, text) && in.good()) {
      port_ = static_cast<std::uint16_t>(std::stoul(text));
      break;
    }
    if (child_.exited()) {
      *error = "reconf_serve exited during start-up (see " + config.work_dir +
               "/reconf_serve.log)";
      return false;
    }
    if (now_ns() - t0 > 20'000'000'000LL) {
      *error = "reconf_serve did not report its port within 20 s";
      child_.stop();
      return false;
    }
    std::this_thread::sleep_for(std::chrono::microseconds(100));
  }
  ::unlink(port_file.c_str());
  const std::string answer = exchange(port_, first_line);
  *setup_s = static_cast<double>(now_ns() - t0) * 1e-9;
  if (!parse_response(answer).verdict) {
    *error = "first request was not answered with a verdict: " + answer;
    child_.stop();
    return false;
  }
  pin_worker_threads(config.cpus);
  return true;
}

void ServerProcess::pin_worker_threads(const std::vector<int>& cpus) {
  if (cpus.empty()) return;
  // Thread ids in creation order; the first is the main thread, which only
  // waits for a stop signal and keeps the whole set.
  std::vector<pid_t> tids;
  const std::string dir = "/proc/" + std::to_string(child_.pid()) + "/task";
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    tids.push_back(static_cast<pid_t>(std::stol(entry.path().filename().string())));
  }
  std::sort(tids.begin(), tids.end());
  for (std::size_t k = 1; k < tids.size(); ++k) {
    pin_thread(tids[k], {cpus[(k - 1) % cpus.size()]});
  }
}

ServerStats query_stats(std::uint16_t port) {
  ServerStats out;
  const std::string answer = exchange(port, "{\"id\":\"stats\",\"stats\":true}\n");
  try {
    const reconf::svc::json::Value doc = reconf::svc::json::parse(answer);
    const auto* stats = doc.find("stats");
    const auto* gauges = stats != nullptr ? stats->find("gauges") : nullptr;
    const auto* counters = stats != nullptr ? stats->find("counters") : nullptr;
    if (gauges == nullptr || counters == nullptr) return out;
    for (const auto& [name, value] : gauges->members) {
      if (name == "reconf_cache_shard_imbalance") out.shard_imbalance = value.number;
      if (name.rfind("reconf_cache_shard_evictions", 0) == 0) {
        out.evictions += value.number;
      }
    }
    for (const auto& [name, value] : counters->members) {
      if (name.rfind("reconf_svc_shed_total", 0) == 0) out.sheds += value.number;
    }
    out.ok = true;
  } catch (const reconf::svc::json::JsonError&) {
  }
  return out;
}

}  // namespace perfbench

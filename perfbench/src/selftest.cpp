#include "selftest.hpp"

#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <cmath>
#include <thread>

#include "layers.hpp"
#include "stats.hpp"
#include "svc/codec.hpp"
#include "wire.hpp"

namespace perfbench {

namespace {

void expect(std::vector<std::string>& failures, bool ok, const std::string& what) {
  if (!ok) failures.push_back(what);
}

bool near(double a, double b) { return std::fabs(a - b) < 1e-9; }

void arithmetic(std::vector<std::string>& failures) {
  // Nearest rank: the ceil(p/100 * n)-th smallest sample.
  expect(failures, near(percentile(std::vector<int>{4, 1, 3, 2}, 50), 2),
         "p50 of {1,2,3,4} is the 2nd smallest");
  expect(failures, near(percentile(std::vector<int>{4, 1, 3, 2}, 75), 3),
         "p75 of {1,2,3,4} is the 3rd smallest");
  expect(failures, near(percentile(std::vector<int>{4, 1, 3, 2}, 100), 4),
         "p100 is the maximum");
  expect(failures, near(percentile(std::vector<int>{7}, 1), 7),
         "any percentile of one sample is that sample");
  std::vector<int> hundred;
  for (int v = 100; v >= 1; --v) hundred.push_back(v);
  expect(failures, near(percentile(hundred, 99), 99), "p99 of 1..100 is 99");
  expect(failures, near(percentile(hundred, 99.5), 100), "p99.5 of 1..100 is 100");
  expect(failures, near(percentile(hundred, 1), 1), "p1 of 1..100 is 1");
  expect(failures, percentile(std::vector<int>{}, 50) == 0.0, "empty input gives 0");
  expect(failures, near(median({3.0, 1.0, 2.0, 10.0}), 2.5), "even-count median");

  // Residual: the unloaded round trip minus the in-process share.
  const std::vector<double> rtt{120.0, 100.0, 110.0};
  const std::vector<double> inproc{45.0, 50.0, 40.0};
  expect(failures, near(residual(percentile(rtt, 50), percentile(inproc, 50)), 65.0),
         "residual of p50 rtt 110 and p50 in-process 45 is 65");

  // Self time: a request span of 100 ns with children of 30 and 20 ns
  // keeps 50 ns; leaves keep their full duration.
  const std::vector<Span> spans{{0, kRequest, -1, 0, 100},
                                {0, kParse, 0, 10, 30},
                                {0, kFormat, 0, 60, 20},
                                {1, kRequest, -1, 200, 40}};
  const std::vector<std::int64_t> self = self_times(spans);
  expect(failures, self[0] == 50 && self[1] == 30 && self[2] == 20 && self[3] == 40,
         "self time subtracts child spans from their parent only");
}

/// A loopback server that answers every line with a verdict line, except
/// that after `stall_after` lines it stops reading for `stall_ms`. Its small
/// receive buffer makes the stall push back on the client's writes.
class StalledServer {
 public:
  StalledServer(std::uint64_t stall_after, int stall_ms)
      : stall_after_(stall_after), stall_ms_(stall_ms) {
    listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    const int small = 2048;
    ::setsockopt(listen_fd_, SOL_SOCKET, SO_RCVBUF, &small, sizeof small);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    socklen_t len = sizeof addr;
    if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof addr) == 0 &&
        ::listen(listen_fd_, 4) == 0 &&
        ::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&addr), &len) == 0) {
      port_ = ntohs(addr.sin_port);
      thread_ = std::thread([this] { serve(); });
    }
  }

  ~StalledServer() {
    if (thread_.joinable()) thread_.join();
    ::close(listen_fd_);
  }

  StalledServer(const StalledServer&) = delete;
  StalledServer& operator=(const StalledServer&) = delete;

  [[nodiscard]] std::uint16_t port() const noexcept { return port_; }
  [[nodiscard]] std::int64_t stall_start() const { return stall_start_.load(); }
  [[nodiscard]] std::int64_t stall_end() const { return stall_end_.load(); }

 private:
  void serve() {
    pollfd lp{listen_fd_, POLLIN, 0};
    if (::poll(&lp, 1, 5000) <= 0) return;
    const int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) return;
    reconf::svc::StreamFramer framer;
    reconf::svc::LineStatus status;
    std::string line;
    std::uint64_t answered = 0;
    char buf[4096];
    for (;;) {
      pollfd p{fd, POLLIN, 0};
      if (::poll(&p, 1, 5000) <= 0) break;
      const ssize_t n = ::recv(fd, buf, sizeof buf, 0);
      if (n <= 0) break;
      framer.feed(buf, static_cast<std::size_t>(n));
      std::string out;
      while (framer.next(line, status)) {
        out += "{\"id\":\"" + reconf::svc::recover_request_id(line) +
               "\",\"verdict\":\"schedulable\",\"accepted_by\":\"dp\","
               "\"cache\":\"miss\",\"hash\":\"0\"}\n";
        if (++answered == stall_after_) {
          ::send(fd, out.data(), out.size(), MSG_NOSIGNAL);
          out.clear();
          stall_start_ = now_ns();
          std::this_thread::sleep_for(std::chrono::milliseconds(stall_ms_));
          stall_end_ = now_ns();
        }
      }
      if (!out.empty()) ::send(fd, out.data(), out.size(), MSG_NOSIGNAL);
    }
    ::close(fd);
  }

  std::uint64_t stall_after_;
  int stall_ms_;
  int listen_fd_ = -1;
  std::uint16_t port_ = 0;
  std::atomic<std::int64_t> stall_start_{0};
  std::atomic<std::int64_t> stall_end_{0};
  std::thread thread_;
};

void stalled_server(std::vector<std::string>& failures) {
  constexpr int kStallMs = 120;
  StalledServer server(100, kStallMs);
  if (server.port() == 0) {
    failures.push_back("stalled server: cannot listen on loopback");
    return;
  }
  DriveConfig config;
  config.port = server.port();
  config.connections = 1;
  config.rate = 2000.0;
  config.seconds = 0.35;
  config.sndbuf = 2048;
  const std::string pad(200, 'x');
  const DriveResult run = drive(config, [&](std::uint64_t i, std::string& out) {
    out += "{\"id\":\"" + std::to_string(i) + "\",\"pad\":\"" + pad + "\"}\n";
  });
  if (!run.error.empty() || run.unanswered != 0 || server.stall_start() == 0) {
    failures.push_back("stalled server: run failed (" + run.error + ")");
    return;
  }
  // Requests due while the server was stalled, excluding the edges.
  std::vector<double> from_intended;
  std::vector<double> from_sent;
  std::vector<double> late;
  const std::int64_t lo = server.stall_start() + 20'000'000;
  const std::int64_t hi = server.stall_end() - 20'000'000;
  for (const Sample& s : run.samples) {
    late.push_back(static_cast<double>(s.appended_ns - s.intended_ns));
    if (s.intended_ns < lo || s.intended_ns > hi) continue;
    from_intended.push_back(static_cast<double>(s.received_ns - s.intended_ns));
    from_sent.push_back(static_cast<double>(s.received_ns - s.sent_ns));
  }
  const double stall_ns = static_cast<double>(server.stall_end() - server.stall_start());
  const double intended_p50 = percentile(from_intended, 50);
  const double sent_p50 = percentile(from_sent, 50);
  expect(failures, from_intended.size() >= 50,
         "stalled server: requests were due during the stall");
  expect(failures, intended_p50 >= 0.25 * stall_ns,
         "stalled server: latency from the intended send time includes the "
         "wait behind the stall");
  expect(failures, sent_p50 < 0.5 * intended_p50,
         "stalled server: latency from the actual send time hides that wait");
  expect(failures, percentile(late, 99) < 0.1 * stall_ns,
         "stalled server: the generator itself stayed on schedule");
}

}  // namespace

std::vector<std::string> run_selftests() {
  std::vector<std::string> failures;
  arithmetic(failures);
  stalled_server(failures);
  return failures;
}

}  // namespace perfbench

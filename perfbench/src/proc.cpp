#include "proc.hpp"

#include <fcntl.h>
#include <sched.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <fstream>
#include <sstream>
#include <thread>

namespace perfbench {

double cpu_seconds(pid_t pid) {
  std::ifstream in("/proc/" + std::to_string(pid) + "/stat");
  std::string text;
  if (!std::getline(in, text)) return -1.0;
  // The command name (field 2) may contain spaces; fields resume after ')'.
  const std::size_t close = text.rfind(')');
  if (close == std::string::npos) return -1.0;
  std::istringstream fields(text.substr(close + 2));
  std::string field;
  unsigned long long utime = 0;
  unsigned long long stime = 0;
  // Field 3 is the state; utime and stime are fields 14 and 15.
  for (int i = 3; i <= 15 && fields >> field; ++i) {
    if (i == 14) utime = std::stoull(field);
    if (i == 15) stime = std::stoull(field);
  }
  return static_cast<double>(utime + stime) /
         static_cast<double>(::sysconf(_SC_CLK_TCK));
}

CpuTimes cpu_times() {
  std::ifstream in("/proc/stat");
  std::string label;
  CpuTimes t;
  unsigned long long v[8] = {};
  in >> label >> v[0] >> v[1] >> v[2] >> v[3] >> v[4] >> v[5] >> v[6] >> v[7];
  for (int i = 0; i < 8; ++i) t.total += v[i];
  t.steal = v[7];
  return t;
}

double peak_rss_mb(pid_t pid) {
  std::ifstream in("/proc/" + std::to_string(pid) + "/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // kB -> MiB
    }
  }
  return -1.0;
}

namespace {

cpu_set_t cpu_set_of(const std::vector<int>& cpus) {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (cpus.empty()) {
    const long online = ::sysconf(_SC_NPROCESSORS_ONLN);
    for (long c = 0; c < online; ++c) CPU_SET(static_cast<int>(c), &set);
  }
  for (const int c : cpus) CPU_SET(c, &set);
  return set;
}

}  // namespace

void pin_thread(pid_t tid, const std::vector<int>& cpus) {
  const cpu_set_t set = cpu_set_of(cpus);
  ::sched_setaffinity(tid, sizeof set, &set);
}

Child::~Child() { stop(); }

Child::Child(Child&& other) noexcept : pid_(other.pid_) { other.pid_ = -1; }

Child& Child::operator=(Child&& other) noexcept {
  if (this != &other) {
    stop();
    pid_ = other.pid_;
    other.pid_ = -1;
  }
  return *this;
}

bool Child::spawn(const std::vector<std::string>& argv, const std::string& stderr_log,
                  std::string* error, const std::vector<int>& cpus) {
  const cpu_set_t cpu_set = cpu_set_of(cpus);
  std::vector<char*> args;
  for (const std::string& a : argv) args.push_back(const_cast<char*>(a.c_str()));
  args.push_back(nullptr);

  const pid_t parent = ::getpid();
  const pid_t pid = ::fork();
  if (pid < 0) {
    *error = std::string("fork: ") + std::strerror(errno);
    return false;
  }
  if (pid == 0) {
    // Child: only async-signal-safe calls until exec. It dies with the
    // harness, so a killed run leaves no server behind.
    ::prctl(PR_SET_PDEATHSIG, SIGTERM);
    if (::getppid() != parent) ::_exit(127);
    ::sched_setaffinity(0, sizeof cpu_set, &cpu_set);
    const int err_fd =
        ::open(stderr_log.c_str(), O_WRONLY | O_CREAT | O_APPEND, 0644);
    if (err_fd >= 0) ::dup2(err_fd, STDERR_FILENO);
    const int null_fd = ::open("/dev/null", O_WRONLY);
    if (null_fd >= 0) ::dup2(null_fd, STDOUT_FILENO);
    ::execv(args[0], args.data());
    ::_exit(127);
  }
  pid_ = pid;
  return true;
}

bool Child::exited() {
  if (pid_ <= 0) return true;
  int status = 0;
  if (::waitpid(pid_, &status, WNOHANG) == pid_) {
    pid_ = -1;
    return true;
  }
  return false;
}

int Child::stop() {
  constexpr int kGraceMs = 5000;
  int result = -1;
  if (pid_ > 0) {
    ::kill(pid_, SIGTERM);
    int status = 0;
    bool reaped = false;
    for (int waited = 0; waited <= kGraceMs; ++waited) {
      if (::waitpid(pid_, &status, WNOHANG) == pid_) {
        reaped = true;
        break;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    if (!reaped) {
      ::kill(pid_, SIGKILL);
      ::waitpid(pid_, &status, 0);
    } else if (WIFEXITED(status)) {
      result = WEXITSTATUS(status);
    }
    pid_ = -1;
  }
  return result;
}

}  // namespace perfbench

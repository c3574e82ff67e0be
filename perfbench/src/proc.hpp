#pragma once

// Process plumbing: monotonic clock, /proc accounting, and child processes
// the harness launches and reaps.

#include <sys/types.h>

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

/// Monotonic nanoseconds (steady_clock).
[[nodiscard]] inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// utime + stime of every thread of `pid`, in seconds (/proc/<pid>/stat).
/// Returns a negative value when the process is gone.
[[nodiscard]] double cpu_seconds(pid_t pid);

/// Whole-machine CPU time from /proc/stat, in clock ticks: all of it, and
/// the part the hypervisor gave to other guests (steal).
struct CpuTimes {
  unsigned long long total = 0;
  unsigned long long steal = 0;
};
[[nodiscard]] CpuTimes cpu_times();

/// Peak resident set (VmHWM of /proc/<pid>/status) in MiB; negative when
/// unreadable.
[[nodiscard]] double peak_rss_mb(pid_t pid);

/// Restricts thread `tid` (0 = the calling thread, whose later threads
/// inherit it) to `cpus`; an empty set means every online CPU.
void pin_thread(pid_t tid, const std::vector<int>& cpus);

/// A child process with stdout discarded and stderr appended to a log
/// file, stopped and reaped on destruction.
class Child {
 public:
  Child() = default;
  ~Child();
  Child(const Child&) = delete;
  Child& operator=(const Child&) = delete;
  Child(Child&& other) noexcept;
  Child& operator=(Child&& other) noexcept;

  /// Fork + exec `argv` (argv[0] is the executable path) on `cpus` (empty =
  /// every CPU). Returns false with `error` set when the fork fails.
  bool spawn(const std::vector<std::string>& argv, const std::string& stderr_log,
             std::string* error, const std::vector<int>& cpus = {});

  [[nodiscard]] pid_t pid() const noexcept { return pid_; }

  /// True when the child has exited (reaping it).
  bool exited();

  /// SIGTERM, wait up to 5 s, then SIGKILL; always reaps. Returns the exit
  /// status (or -1 when killed / not running).
  int stop();

 private:
  pid_t pid_ = -1;
};

}  // namespace perfbench

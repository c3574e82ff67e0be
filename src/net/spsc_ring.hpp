#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <mutex>
#include <utility>
#include <vector>

#include <unistd.h>

#include "net/poller.hpp"

namespace reconf::net {

/// Bounded single-producer single-consumer ring queue — the only channel
/// between an I/O thread and a shard worker in the async serving tier. One
/// designated producer thread calls try_push, one designated consumer
/// thread calls try_pop; under that contract the fast path is two relaxed
/// loads, one acquire load and one release store per operation — no locks,
/// no CAS, no contention beyond the unavoidable cache-line handoff.
///
/// Capacity is rounded up to a power of two. A full ring fails the push
/// (the caller decides: shed the request or flow-control the connection);
/// an empty ring fails the pop (the caller parks — see Parker below).
template <typename T>
class SpscRing {
 public:
  explicit SpscRing(std::size_t capacity) {
    std::size_t cap = 1;
    while (cap < capacity) cap <<= 1;
    slots_.resize(cap);
    mask_ = cap - 1;
  }

  SpscRing(const SpscRing&) = delete;
  SpscRing& operator=(const SpscRing&) = delete;

  /// Producer thread only.
  [[nodiscard]] bool try_push(T&& value) {
    const std::size_t tail = tail_.load(std::memory_order_relaxed);
    if (tail - head_cache_ > mask_) {
      head_cache_ = head_.load(std::memory_order_acquire);
      if (tail - head_cache_ > mask_) return false;  // full
    }
    slots_[tail & mask_] = std::move(value);
    tail_.store(tail + 1, std::memory_order_release);
    return true;
  }

  /// Consumer thread only.
  [[nodiscard]] bool try_pop(T& out) {
    const std::size_t head = head_.load(std::memory_order_relaxed);
    if (head == tail_cache_) {
      tail_cache_ = tail_.load(std::memory_order_acquire);
      if (head == tail_cache_) return false;  // empty
    }
    out = std::move(slots_[head & mask_]);
    head_.store(head + 1, std::memory_order_release);
    return true;
  }

  /// Any thread; racy snapshot.
  [[nodiscard]] bool empty() const {
    return head_.load(std::memory_order_acquire) ==
           tail_.load(std::memory_order_acquire);
  }

  /// Any thread; racy snapshot.
  [[nodiscard]] std::size_t size() const {
    const std::size_t head = head_.load(std::memory_order_acquire);
    const std::size_t tail = tail_.load(std::memory_order_acquire);
    return tail - head;
  }

  [[nodiscard]] std::size_t capacity() const noexcept { return mask_ + 1; }

 private:
  std::vector<T> slots_;
  std::size_t mask_ = 0;
  alignas(64) std::atomic<std::size_t> head_{0};  ///< consumer cursor
  alignas(64) std::atomic<std::size_t> tail_{0};  ///< producer cursor
  alignas(64) std::size_t head_cache_ = 0;  ///< producer's view of head_
  alignas(64) std::size_t tail_cache_ = 0;  ///< consumer's view of tail_
};

// ThreadSanitizer does not model fences, and GCC says so with a warning for
// each one under -fsanitize=thread. The fences below order no data TSan has
// to see (the rings publish with release/acquire); they only close the
// StoreLoad races of the wake handshakes.
#if defined(__SANITIZE_THREAD__) && !defined(__clang__)
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wtsan"
#endif
/// Full barrier: a store before it is visible to every thread before any
/// load after it reads. Both sides of a Dekker handshake need one.
inline void store_load_fence() {
  std::atomic_thread_fence(std::memory_order_seq_cst);
}
#if defined(__SANITIZE_THREAD__) && !defined(__clang__)
#pragma GCC diagnostic pop
#endif

/// Sleep/wake handshake for a ring consumer (a shard worker). The consumer
/// publishes `parked`, re-checks for work, and sleeps; a producer pushes,
/// then checks `parked` and wakes it. Each side puts a full fence between
/// its store and its load, so at least one of them sees the other's store:
/// either the consumer finds the work, or the producer finds it parked. The
/// bounded wait_for is a backstop only; no interleaving relies on it.
class Parker {
 public:
  /// Producer side; call after the push.
  void notify() {
    store_load_fence();
    if (parked_.load(std::memory_order_seq_cst)) {
      // Taking the mutex orders this wake after a consumer that checked its
      // predicate and is about to wait. Notifying after the unlock spares
      // the woken consumer from blocking at once on the mutex held here.
      { const std::lock_guard<std::mutex> lock(mutex_); }
      cv_.notify_one();
    }
  }

  /// `has_work` must return true when the consumer should run (work queued
  /// or shutdown requested). Returns when it does, or after a bounded nap.
  template <typename Pred>
  void park(const Pred& has_work) {
    parked_.store(true, std::memory_order_seq_cst);
    store_load_fence();
    if (has_work()) {
      parked_.store(false, std::memory_order_seq_cst);
      return;
    }
    std::unique_lock<std::mutex> lock(mutex_);
    cv_.wait_for(lock, std::chrono::milliseconds(10),
                 [&] { return has_work(); });
    parked_.store(false, std::memory_order_seq_cst);
  }

 private:
  std::atomic<bool> parked_{false};
  std::mutex mutex_;
  std::condition_variable cv_;
};

/// One-byte self-pipe that wakes a consumer blocked in poll/epoll on
/// fds[0] (an io thread) when a producer (a shard worker, or the thread
/// handing over a new connection) has queued something for it.
///
/// `pending` coalesces a burst of notifies into one pipe write: notify()
/// writes only when it is the one that set the flag. drain() reads that
/// byte first and clears the flag after, with an acq_rel exchange. A notify
/// that found the flag set therefore came before the clear, and the clear
/// acquires its producer's push: the consumer's pops after drain() see it.
/// A notify after the clear writes a new byte. The pipe never holds more
/// than one byte, and no notify is lost.
struct WakePipe {
  int fds[2] = {-1, -1};
  std::atomic<bool> pending{false};

  bool open() {
    if (::pipe(fds) != 0) return false;
    return set_nonblocking(fds[0]) && set_nonblocking(fds[1]);
  }

  void close_fds() {
    for (int& fd : fds) {
      if (fd >= 0) ::close(fd);
      fd = -1;
    }
  }

  /// Producer side; call after the push.
  void notify() {
    if (pending.exchange(true, std::memory_order_seq_cst)) return;
    const char byte = 1;
    [[maybe_unused]] const ssize_t n = ::write(fds[1], &byte, 1);
  }

  /// Consumer side; call when fds[0] polls readable, then pop every ring
  /// this pipe stands for.
  void drain() {
    char byte = 0;
    [[maybe_unused]] const ssize_t n = ::read(fds[0], &byte, 1);
    pending.exchange(false, std::memory_order_acq_rel);
  }
};

}  // namespace reconf::net

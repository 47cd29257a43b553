// semaphore.hpp — classic counting semaphore (Dijkstra [7]).
//
// Built on mutex + condition variable rather than std::counting_semaphore
// so it carries the same structural instrumentation as the other
// mechanisms (suspensions, wakeups) for the queue-census experiment (E9).
#pragma once

#include <condition_variable>
#include <cstdint>
#include <mutex>

namespace monotonic {

/// Counting semaphore with P/V and n-ary acquire/release.
class Semaphore {
 public:
  /// Starts with `initial` permits.
  explicit Semaphore(std::uint64_t initial = 0) : permits_(initial) {}
  Semaphore(const Semaphore&) = delete;
  Semaphore& operator=(const Semaphore&) = delete;

  /// P: suspends until `n` permits are available, then takes them
  /// atomically (no partial acquisition).
  void acquire(std::uint64_t n = 1);

  /// Non-blocking P.  Returns true iff `n` permits were taken.
  bool try_acquire(std::uint64_t n = 1);

  /// V: adds `n` permits and wakes waiters.
  void release(std::uint64_t n = 1);

  /// Current permit count; test/bench introspection only.
  std::uint64_t debug_permits() const;

  /// Number of threads that actually suspended in acquire() so far.
  std::uint64_t stat_suspensions() const;

 private:
  mutable std::mutex m_;
  std::condition_variable cv_;
  std::uint64_t permits_;
  std::uint64_t suspensions_ = 0;  // guarded by m_
};

}  // namespace monotonic

// event.hpp — one-shot condition / manual-reset event.
//
// The paper's §4.4 baseline uses an array of "Condition" objects with
// Set() and Check(): Check suspends until the condition has been Set,
// and once Set the condition stays set (it is itself monotonic — a
// Counter restricted to the value range {0, 1}).  This matches a Win32
// manual-reset event or a binary CountDownLatch.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <mutex>

namespace monotonic {

/// One-shot event.  Initially unset.  Set() is idempotent; Check()
/// blocks until set.  There is deliberately no Unset(): monotonicity is
/// what makes Check race-free (§6).
class Condition {
 public:
  Condition() = default;
  Condition(const Condition&) = delete;
  Condition& operator=(const Condition&) = delete;

  /// Sets the condition and wakes every thread suspended in Check().
  void Set();

  /// Suspends the calling thread until the condition is set.  Returns
  /// immediately if already set.
  void Check();

  /// True iff Set() has been called.  Test/bench introspection only:
  /// application code must synchronize through Check() (the paper's
  /// no-probe rule, §2).
  bool debug_is_set() const;

  /// Number of threads that actually suspended (slept) in Check() so far.
  std::uint64_t stat_suspensions() const noexcept;

 private:
  mutable std::mutex m_;
  std::condition_variable cv_;
  bool set_ = false;
  std::uint64_t suspensions_ = 0;  // guarded by m_
};

}  // namespace monotonic

// engine_env.hpp — the wait engine's view of the outside world, as an
// injectable trait.
//
// Everything the engine and its policies do that touches the host
// platform — lock a mutex, sleep on a condition variable or futex
// word, read the clock, spin, publish through an atomic — goes through
// one environment type instead of naming std:: primitives directly:
//
//   struct Env {
//     using Mutex   = ...;   // BasicLockable + Lockable
//     using CondVar = ...;   // wait(unique_lock<Mutex>&) / wait_until /
//                            // notify_all
//     using Clock   = ...;   // static steady time_point now()
//     template <typename T> using Atomic = ...;  // std::atomic shape
//     using SpinWaiter = ...;                    // once() in poll loops
//     static void point(SchedulePoint) noexcept; // schedule hook
//     static void alloc_point();                 // fault hook: called
//                            // immediately before every heap
//                            // allocation the engine performs under
//                            // its mutex (wait/callback nodes); a
//                            // fault environment may throw
//                            // std::bad_alloc here to exercise the
//                            // strong-guarantee paths
//     static std::size_t stripe_slot() noexcept; // striped-plane home
//     static void futex_wait(Atomic<u32>*, u32);
//     static bool futex_wait_until(Atomic<u32>*, u32, time_point);
//     static void futex_wake_all(Atomic<u32>*);
//   };
//
// Production code uses RealEngineEnv (below): every alias is the std::
// primitive the engine always used, `point()` is an empty inline
// function, and the whole indirection compiles away — the production
// instantiations are bit-for-bit the pre-seam engine.
//
// The deterministic simulation harness (monotonic/sim/) supplies
// SimEngineEnv instead: a cooperative scheduler owns every primitive,
// a seeded PRNG picks the next runnable thread at each schedule point,
// the clock is virtual, and relaxed atomic stores sit in a modelled
// per-thread store buffer — so park, wake, watermark-arm, collapse,
// poison and cancel become explorable, replayable decision points.
// Because the environment is a template parameter (not a macro), sim
// and production instantiations are distinct types that can coexist in
// one binary with no ODR hazards.
#pragma once

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <mutex>
#include <stop_token>
#include <thread>

#include "monotonic/support/spin_wait.hpp"

#if defined(__linux__)
#include <climits>
#include <linux/futex.h>
#include <sys/syscall.h>
#include <time.h>
#include <unistd.h>
#endif

namespace monotonic {

/// Engine decision points a simulation environment may interleave at.
/// RealEngineEnv ignores them; SimEngineEnv turns each into a seeded
/// scheduler choice.  The names follow the engine's vocabulary.
enum class SchedulePoint : std::uint8_t {
  kIncrementFast,  ///< lock-free Increment about to publish
  kIncrementSlow,  ///< Increment diverting to the locked slow pass
  kCheck,          ///< Check/CheckFor/CheckUntil entry
  kArm,            ///< waiter arming the value plane for its level
  kRearm,          ///< engine recomputing the lowest armed level
  kCollapse,       ///< linearizable collapse of the value plane
  kPark,           ///< waiter about to sleep on its wait node
  kWake,           ///< a released node's waiters being woken
  kPoison,         ///< Poison freezing the counter
  kCancel,         ///< cancellation nudge firing
  kStall,          ///< stall watchdog delivering a report
  kIndexLink,      ///< level index linking a fresh level node
  kIndexPeel,      ///< level index peeling the global-min level
  // Cross-process counter protocol points (shared_counter.hpp).  Each
  // marks a window in which a participant's death leaves the shared
  // segment in a distinct state the death detector must recover from;
  // the multi-process kill-point sweep raises SIGKILL at them.
  kSharedRegister,  ///< participant claiming its registration slot
  kSharedInflight,  ///< in-flight marker raised, value not yet published
  kSharedPublish,   ///< value published, wake word not yet bumped
  kSharedWake,      ///< waiters woken, in-flight marker not yet cleared
  kSharedSweep,     ///< death detector sweeping the registration slots
  // Predicate-wait / async-completion plane points (completion.hpp,
  // the Check(pred) surface).
  kPredicateEval,      ///< predicate about to be evaluated / re-armed
  kCompletionEnqueue,  ///< reached chain handed to the completion executor
};

namespace detail {

/// Per-thread stripe slot: a round-robin ticket taken once per thread,
/// shared by every striped counter in the process (threads that never
/// touch a striped counter never take one).  Round-robin beats hashing
/// the thread id here — T threads land on min(T, stripes) distinct
/// stripes with no birthday collisions.
inline std::size_t this_thread_stripe_slot() noexcept {
  static std::atomic<std::size_t> next_slot{0};
  thread_local const std::size_t slot =
      next_slot.fetch_add(1, std::memory_order_relaxed);
  return slot;
}

/// Portable timed wait by polling: sleeps in `quantum`-sized slices,
/// each clamped to the time left before `deadline`, so the wait never
/// overshoots the deadline by a full quantum (a CheckFor(1ms) on the
/// pre-clamp code could oversleep by up to 20%).  Returns false iff it
/// gave up because the deadline passed with the value unchanged.
/// Compiled on every platform so the clamp stays unit-testable even
/// where the real futex path is used.
inline bool poll_wait_until(std::atomic<std::uint32_t>* addr,
                            std::uint32_t expected,
                            std::chrono::steady_clock::time_point deadline,
                            std::chrono::microseconds quantum =
                                std::chrono::microseconds(200)) {
  while (addr->load(std::memory_order_acquire) == expected) {
    const auto now = std::chrono::steady_clock::now();
    if (now >= deadline) return false;
    const auto remaining = std::chrono::duration_cast<std::chrono::microseconds>(
        deadline - now);
    std::this_thread::sleep_for(std::min(quantum, remaining));
  }
  return true;
}

#if defined(__linux__)

inline void futex_wait(std::atomic<std::uint32_t>* addr,
                       std::uint32_t expected) {
  syscall(SYS_futex, reinterpret_cast<std::uint32_t*>(addr),
          FUTEX_WAIT_PRIVATE, expected, nullptr, nullptr, 0);
}

/// Returns false iff the wait gave up because the deadline passed.
inline bool futex_wait_until(std::atomic<std::uint32_t>* addr,
                             std::uint32_t expected,
                             std::chrono::steady_clock::time_point deadline) {
  const auto now = std::chrono::steady_clock::now();
  if (now >= deadline) return false;
  const auto rel =
      std::chrono::duration_cast<std::chrono::nanoseconds>(deadline - now);
  struct timespec ts;
  ts.tv_sec = static_cast<time_t>(rel.count() / 1000000000);
  ts.tv_nsec = static_cast<long>(rel.count() % 1000000000);
  const long rc =
      syscall(SYS_futex, reinterpret_cast<std::uint32_t*>(addr),
              FUTEX_WAIT_PRIVATE, expected, &ts, nullptr, 0);
  return !(rc == -1 && errno == ETIMEDOUT);
}

inline void futex_wake_all(std::atomic<std::uint32_t>* addr) {
  syscall(SYS_futex, reinterpret_cast<std::uint32_t*>(addr),
          FUTEX_WAKE_PRIVATE, INT_MAX, nullptr, nullptr, 0);
}

/// Cross-process futex shims: identical to the private ones above but
/// WITHOUT the FUTEX_PRIVATE flag, so the kernel keys the wait queue by
/// the backing (shared) mapping instead of the address space — the form
/// a futex word in a shm_open segment needs for waiters in independent
/// processes to see each other's wakes.
inline bool shared_futex_wait_until(
    std::atomic<std::uint32_t>* addr, std::uint32_t expected,
    std::chrono::steady_clock::time_point deadline) {
  const auto now = std::chrono::steady_clock::now();
  if (now >= deadline) return false;
  const auto rel =
      std::chrono::duration_cast<std::chrono::nanoseconds>(deadline - now);
  struct timespec ts;
  ts.tv_sec = static_cast<time_t>(rel.count() / 1000000000);
  ts.tv_nsec = static_cast<long>(rel.count() % 1000000000);
  const long rc = syscall(SYS_futex, reinterpret_cast<std::uint32_t*>(addr),
                          FUTEX_WAIT, expected, &ts, nullptr, 0);
  return !(rc == -1 && errno == ETIMEDOUT);
}

inline void shared_futex_wake_all(std::atomic<std::uint32_t>* addr) {
  syscall(SYS_futex, reinterpret_cast<std::uint32_t*>(addr), FUTEX_WAKE,
          INT_MAX, nullptr, nullptr, 0);
}

#else  // portable fallback: std::atomic wait/notify (no timed variant)

inline void futex_wait(std::atomic<std::uint32_t>* addr,
                       std::uint32_t expected) {
  addr->wait(expected, std::memory_order_acquire);
}

inline bool futex_wait_until(std::atomic<std::uint32_t>* addr,
                             std::uint32_t expected,
                             std::chrono::steady_clock::time_point deadline) {
  // std::atomic has no timed wait; poll in deadline-clamped sleeps.
  return poll_wait_until(addr, expected, deadline);
}

inline void futex_wake_all(std::atomic<std::uint32_t>* addr) {
  addr->notify_all();
}

/// Portable fallback: cross-process waiters poll the word in deadline-
/// clamped sleeps (std::atomic wait/notify is address-space local, so
/// the wake side is deliberately a no-op — pollers observe the store).
inline bool shared_futex_wait_until(
    std::atomic<std::uint32_t>* addr, std::uint32_t expected,
    std::chrono::steady_clock::time_point deadline) {
  return poll_wait_until(addr, expected, deadline);
}

inline void shared_futex_wake_all(std::atomic<std::uint32_t>* /*addr*/) {}

#endif

}  // namespace detail

/// The production environment: plain std:: primitives, an empty
/// schedule hook, the process-wide stripe-slot ticket.  Everything
/// inlines to exactly the pre-seam code.
struct RealEngineEnv {
  static constexpr bool kSimulated = false;

  using Mutex = std::mutex;
  using CondVar = std::condition_variable;
  using Clock = std::chrono::steady_clock;
  template <typename T>
  using Atomic = std::atomic<T>;
  using SpinWaiter = SpinBackoff;
  /// Cancellation hook registration (the engine's stop_token nudge).
  /// Behind the environment because ~stop_callback blocks on an
  /// in-flight invocation — an OS-level wait the simulation scheduler
  /// must model itself or hang.
  template <typename F>
  using StopCallback = std::stop_callback<F>;

  static void point(SchedulePoint) noexcept {}

  /// Fault hook before every engine heap allocation.  Production: the
  /// allocation simply proceeds (any real bad_alloc the allocator
  /// raises flows through the same strong-guarantee paths a fault
  /// environment exercises).
  static void alloc_point() {}

  static std::size_t stripe_slot() noexcept {
    return detail::this_thread_stripe_slot();
  }

  static void futex_wait(Atomic<std::uint32_t>* addr, std::uint32_t expected) {
    detail::futex_wait(addr, expected);
  }
  static bool futex_wait_until(Atomic<std::uint32_t>* addr,
                               std::uint32_t expected,
                               Clock::time_point deadline) {
    return detail::futex_wait_until(addr, expected, deadline);
  }
  static void futex_wake_all(Atomic<std::uint32_t>* addr) {
    detail::futex_wake_all(addr);
  }
};

}  // namespace monotonic

// awaitable.hpp — C++20 coroutine awaitables over counter levels.
//
// `Check(level)` parks an OS thread; `OnReach(level, fn)` runs a
// callback with no thread at all.  This header closes the gap between
// them: `co_await reach(counter, level)` suspends a *coroutine frame*
// — tens of bytes — instead of an OS thread — megabytes of stack —
// so a million logical waiters cost what a million heap nodes cost,
// not what a million threads cost (bench E15 measures exactly this).
//
//   DetachedTask consumer() {
//     co_await reach(published, 10);      // no thread parked
//     use_items();
//   }
//
// The awaitable is a thin adapter over OnReach, so it inherits the
// engine's guarantees verbatim:
//
//   * already-reached levels resume without suspending (OnReach runs
//     its callback synchronously; the fired/armed handshake below turns
//     that into `await_suspend` returning false);
//   * poison resumes the coroutine with CounterPoisonedError raised
//     from `co_await` (delivered through OnReach's on_error channel);
//   * with a completion executor configured, resumption runs on the
//     executor's thread, not the incrementer's.
//
// `reach(counter, level, stop_token)` adds cooperative cancellation:
// a stop request resumes the coroutine with `co_await` returning
// false (mirroring Check(level, stop)'s bool).  `when_all(r1, r2, ...)`
// suspends until every condition holds — levels on *different*
// counters compose because monotonicity makes each sub-wait latching.
//
// This header is standalone: it needs only the standard library plus
// the error and config headers, never the engine — any type with the
// OnReach(level, fn, on_err) contract works, including AnyHandle.
#pragma once

#include <atomic>
#include <coroutine>
#include <cstddef>
#include <cstdio>
#include <exception>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <stop_token>
#include <tuple>
#include <utility>

#include "monotonic/core/counter_error.hpp"
#include "monotonic/support/config.hpp"

namespace monotonic {

namespace detail {

/// Shared between the awaitable (frame side) and the OnReach / stop
/// callbacks (firer side).  Lifetime: shared_ptr, because a losing
/// firer — say a reach callback racing a stop request — can outlive
/// the coroutine by an arbitrary stretch (it runs whenever its level
/// is finally reached) and must land on live memory.
struct AwaitState {
  enum class Result { kReached, kCancelled, kError };

  /// First firer wins: claims the right to write the result payload
  /// and complete the handshake.  Late firers are no-ops.
  std::atomic<bool> claimed{false};
  /// Handshake against the suspending thread: 0 = registering,
  /// 1 = suspended (firer resumes), 2 = fired (don't suspend).
  std::atomic<int> fired{0};
  std::coroutine_handle<> handle;
  Result result = Result::kReached;
  std::exception_ptr error;
  /// Keeps the stop callback alive as long as a firer might race it.
  std::optional<std::stop_callback<std::function<void()>>> stop_watch;

  /// Runs on whichever thread fires first (incrementer, executor
  /// worker, or the stop-requesting thread).  Writes the payload
  /// before the handshake so await_resume reads it happens-after.
  void fire(Result r, std::exception_ptr ep = nullptr) {
    if (claimed.exchange(true, std::memory_order_acq_rel)) return;
    result = r;
    error = std::move(ep);
    if (fired.exchange(2, std::memory_order_acq_rel) == 1) {
      handle.resume();
    }
  }

  /// await_suspend tail: complete the armed/fired handshake after all
  /// registration is done.  Returns whether the coroutine suspends —
  /// false when a firer already ran (synchronous OnReach on an
  /// already-reached level, or an instant stop), which resumes inline.
  bool arm() {
    return fired.exchange(1, std::memory_order_acq_rel) != 2;
  }

  /// await_resume body: rethrow errors, map reached/cancelled to bool.
  bool consume() {
    if (result == Result::kError) std::rethrow_exception(error);
    return result == Result::kReached;
  }

  /// Arms a stop_token against this state.  Captures `this` rather
  /// than a shared_ptr (which would cycle state → stop_watch → state
  /// and leak): stop_watch is the LAST declared member, so ~AwaitState
  /// destroys it first, and ~stop_callback blocks until an in-flight
  /// invocation returns — the callback can never touch freed members.
  void watch(std::stop_token stop) {
    stop_watch.emplace(std::move(stop), std::function<void()>([this] {
                         fire(Result::kCancelled);
                       }));
  }
};

/// Single-condition state: reached fires success directly.
struct SingleAwaitState : AwaitState {
  void on_reached() { fire(Result::kReached); }
  void on_error(std::exception_ptr ep) {
    fire(Result::kError, ensure_poisoned_error(std::move(ep)));
  }
};

/// when_all state: the last condition to be satisfied fires; any
/// error fires immediately (fail-fast — the conjunction can no longer
/// hold, exactly like check_all unwinding on the first poisoned
/// counter).
struct AllAwaitState : AwaitState {
  explicit AllAwaitState(std::size_t n) : remaining(n) {}
  std::atomic<std::size_t> remaining;
  void on_reached() {
    if (remaining.fetch_sub(1, std::memory_order_acq_rel) == 1) {
      fire(Result::kReached);
    }
  }
  void on_error(std::exception_ptr ep) {
    fire(Result::kError, ensure_poisoned_error(std::move(ep)));
  }
};

}  // namespace detail

/// Awaitable for one (counter, level) condition.  Returned by
/// reach(); `co_await` it exactly once.
template <typename C>
class [[nodiscard]] ReachAwaitable {
 public:
  ReachAwaitable(C& counter, counter_value_t level)
      : counter_(&counter), level_(level) {}
  ReachAwaitable(C& counter, counter_value_t level, std::stop_token stop)
      : counter_(&counter), level_(level), stop_(std::move(stop)) {}

  bool await_ready() const noexcept { return false; }

  bool await_suspend(std::coroutine_handle<> h) {
    state_ = std::make_shared<detail::SingleAwaitState>();
    state_->handle = h;
    register_on(*counter_, state_);
    if (stop_) state_->watch(*stop_);
    return state_->arm();
  }

  /// True when the level was reached; false when the stop token fired
  /// first; throws (CounterPoisonedError for poison) on error.
  bool await_resume() { return state_->consume(); }

  C& counter() const noexcept { return *counter_; }
  counter_value_t level() const noexcept { return level_; }

  /// Registers this condition's OnReach firing `st` — when_all reuses
  /// it against its own shared state.  The registration is permanent
  /// (the engine has no deregistration); a fire after the state was
  /// claimed is a no-op, the same bounded residual as a
  /// woken-but-cancelled Check(level, stop) waiter.
  template <typename State>
  void register_on(C& target, const std::shared_ptr<State>& st) const {
    target.OnReach(
        level_, [st] { st->on_reached(); },
        [st](std::exception_ptr ep) { st->on_error(std::move(ep)); });
  }

 private:
  C* counter_;
  counter_value_t level_;
  std::optional<std::stop_token> stop_;
  std::shared_ptr<detail::SingleAwaitState> state_;
};

/// `co_await reach(counter, n)` — suspend this coroutine until
/// `counter`'s value is at least `n`.  Works with any OnReach-capable
/// counter: every policy, both value planes, AnyHandle.
template <typename C>
ReachAwaitable<C> reach(C& counter, counter_value_t level) {
  return ReachAwaitable<C>(counter, level);
}

/// Cancellable variant: a stop request resumes the coroutine with
/// `co_await` evaluating to false.
template <typename C>
ReachAwaitable<C> reach(C& counter, counter_value_t level,
                        std::stop_token stop) {
  return ReachAwaitable<C>(counter, level, std::move(stop));
}

/// Awaitable conjunction: resumes when every condition holds.  Because
/// counters are monotone, each sub-condition latches once reached —
/// no revocation, so "all of them, eventually" is exactly "each of
/// them, in any order".  Any poisoned counter fails the whole wait
/// with its CounterPoisonedError.
template <typename... C>
class [[nodiscard]] WhenAllAwaitable {
 public:
  explicit WhenAllAwaitable(ReachAwaitable<C>... conditions)
      : conditions_(std::move(conditions)...) {}

  bool await_ready() const noexcept { return false; }

  bool await_suspend(std::coroutine_handle<> h) {
    // +1 registration guard: the state cannot fire success while
    // conditions are still being registered, even if every counter is
    // already past its level and each OnReach runs synchronously.
    state_ = std::make_shared<detail::AllAwaitState>(sizeof...(C) + 1);
    state_->handle = h;
    std::apply(
        [this](auto&... cond) {
          (cond.register_on(cond.counter(), state_), ...);
        },
        conditions_);
    state_->on_reached();  // release the registration guard
    return state_->arm();
  }

  /// True (all reached) or throws the first error observed.
  bool await_resume() { return state_->consume(); }

 private:
  std::tuple<ReachAwaitable<C>...> conditions_;
  std::shared_ptr<detail::AllAwaitState> state_;
};

/// `co_await when_all(reach(a, 3), reach(b, 5))`.
template <typename... C>
WhenAllAwaitable<C...> when_all(ReachAwaitable<C>... conditions) {
  return WhenAllAwaitable<C...>(std::move(conditions)...);
}

/// What a DetachedTask does with an exception that escapes its body.
/// Receives the escaped exception; runs on whichever thread resumed
/// the coroutine (an incrementer, an executor worker, a server event
/// loop) — keep it cheap and never let it throw.
using DetachedTaskErrorHandler = std::function<void(std::exception_ptr)>;

namespace detail {
struct DetachedErrorSlot {
  std::mutex m;
  DetachedTaskErrorHandler handler;  ///< empty = default stderr line
};
inline DetachedErrorSlot& detached_error_slot() {
  static DetachedErrorSlot slot;
  return slot;
}
}  // namespace detail

/// Installs the process-wide handler for exceptions escaping
/// DetachedTask coroutines, returning the previous handler (empty =
/// the default, which logs one stderr line and drops the exception).
/// Pass an empty function to restore the default.
///
/// A detached coroutine has no joiner, so an escaped exception has no
/// natural propagation edge — the pre-handler behavior was
/// std::terminate, which is the wrong failure mode for a server whose
/// completions are all detached: one poisoned counter reaching an
/// un-caught `co_await` must not take down every other connection.
/// The handler is the surviving propagation edge.  A server should
/// treat it like a producer exception: log it, and Poison the
/// counters (or FailureDomain) the dead task was serving so its
/// waiters unblock as CounterPoisonedError instead of hanging —
/// dropping the exception silently strands them.  Note that an
/// un-caught poison error from `co_await reach()` itself lands here
/// too (already-poisoned work needs no re-poisoning, just the log).
inline DetachedTaskErrorHandler set_detached_task_error_handler(
    DetachedTaskErrorHandler handler) {
  auto& slot = detail::detached_error_slot();
  std::lock_guard<std::mutex> lk(slot.m);
  std::swap(slot.handler, handler);
  return handler;
}

/// Minimal fire-and-forget coroutine type for launching awaiting
/// work: starts eagerly and detaches.  An exception that escapes the
/// body is routed to the process-wide handler
/// (set_detached_task_error_handler) — by default one stderr line,
/// never std::terminate — so prefer handling errors inside the body
/// (e.g. catch CounterPoisonedError around the co_await) where the
/// task still has context.  Tests, benches and the shard server use
/// it; applications with richer lifetime needs should bring their own
/// task type.
struct DetachedTask {
  struct promise_type {
    DetachedTask get_return_object() noexcept { return {}; }
    std::suspend_never initial_suspend() noexcept { return {}; }
    std::suspend_never final_suspend() noexcept { return {}; }
    void return_void() noexcept {}
    void unhandled_exception() noexcept {
      DetachedTaskErrorHandler handler;
      {
        auto& slot = detail::detached_error_slot();
        std::lock_guard<std::mutex> lk(slot.m);
        handler = slot.handler;
      }
      std::exception_ptr ep = std::current_exception();
      if (handler) {
        try {
          handler(std::move(ep));
        } catch (...) {
          std::fprintf(stderr,
                       "monotonic: DetachedTask error handler itself threw; "
                       "exception dropped\n");
        }
        return;
      }
      try {
        std::rethrow_exception(ep);
      } catch (const std::exception& e) {
        std::fprintf(stderr,
                     "monotonic: exception escaped a DetachedTask coroutine "
                     "(dropped): %s\n",
                     e.what());
      } catch (...) {
        std::fprintf(stderr,
                     "monotonic: non-std::exception escaped a DetachedTask "
                     "coroutine (dropped)\n");
      }
    }
  };
};

}  // namespace monotonic

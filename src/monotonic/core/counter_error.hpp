// counter_error.hpp — the failure-model error taxonomy.
//
// The paper's monotonicity argument (§6) assumes every Increment a
// Check waits on eventually happens.  Production producers crash,
// throw, and get cancelled, so the engine carries a first-class
// failure model (see basic_counter.hpp):
//
//   * Poison(cause)    — freezes the counter at its current value,
//     wakes every parked waiter, and turns every Check above the
//     frozen value into a CounterPoisonedError carrying the producer's
//     original exception;
//   * Check(level, stop_token) — cooperative cancellation: returns
//     false instead of parking forever when the token is triggered;
//   * the stall watchdog (WaitListOptions::stall_report_after) —
//     surfaces a wait-list snapshot when a waiter is stuck past a
//     threshold, instead of a silent hang.
//
// The resource model (same engine) adds two RECOVERABLE failures:
//
//   * CounterResourceError — the engine needed memory (a wait node, a
//     callback node) and the allocator refused.  The throw carries the
//     strong guarantee: waiter counts, stats, the ordered list and the
//     value-plane watermark are exactly as before the call, the engine
//     mutex is released, and the counter remains fully usable —
//     subsequent Increment/Check succeed.
//   * CounterOverloadedError — bounded admission
//     (WaitListOptions::max_waiters with OverloadPolicy::kThrow)
//     turned a waiter away.  Also recoverable:
//     capacity frees as parked waiters are released.
//
// Every engine exception derives from CounterError (itself a
// std::runtime_error, so pre-taxonomy `catch (std::runtime_error&)`
// sites keep working), letting callers write one `catch
// (CounterError&)` for "the counter, not my code, failed".  Patterns
// build their own vocabulary on top (BrokenChannelError is a
// CounterPoisonedError).
#pragma once

#include <cstdint>
#include <exception>
#include <stdexcept>
#include <string>
#include <string_view>
#include <utility>

namespace monotonic {

/// Root of the engine's exception taxonomy.  Everything the wait
/// engine itself throws — poisoning, resource exhaustion, overload —
/// derives from this; checked-usage errors (MC_REQUIRE) deliberately
/// do not, since those are caller bugs, not counter failures.
class CounterError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// Why a counter was poisoned.  In-process counters are always
/// poisoned explicitly (a producer's Poison call, directly or via a
/// FailureDomain), so the code carries no extra information there; the
/// cross-process counter (shared_counter.hpp) adds two machine causes
/// that cannot carry an exception across the process boundary, and
/// waiters classify on the code instead:
///
///   * kParticipantDied — the death detector found a registered
///     participant gone (kill(pid,0) == ESRCH, or heartbeat staleness
///     when enabled) and poisoned the shared epoch so no waiter in any
///     process is left parked on increments that will never come;
///   * kEpochSuperseded — the counter name was recovered by a fresh
///     Create: this handle's epoch is over, and its pending waits can
///     never complete against the new epoch's value.
enum class PoisonCause : std::uint8_t {
  kExplicit,         ///< Poison(cause/reason) was called
  kParticipantDied,  ///< a registered process died mid-protocol
  kEpochSuperseded,  ///< the shared name was re-Created under this handle
};

constexpr std::string_view to_string(PoisonCause cause) noexcept {
  switch (cause) {
    case PoisonCause::kExplicit:
      return "explicit";
    case PoisonCause::kParticipantDied:
      return "participant-died";
    case PoisonCause::kEpochSuperseded:
      return "epoch-superseded";
  }
  return "?";
}

/// Thrown by Check/CheckFor/CheckUntil on a poisoned counter when the
/// requested level lies above the frozen value — i.e. the Increment
/// this thread was waiting on can never happen.  `cause()` is the
/// exception the producer failed with (null when the counter was
/// poisoned with a bare reason string or by a machine cause);
/// `poison_cause()` is the machine-readable why (see PoisonCause).
class CounterPoisonedError : public CounterError {
 public:
  explicit CounterPoisonedError(const std::string& what,
                                std::exception_ptr cause = {})
      : CounterError(what), cause_(std::move(cause)) {}

  CounterPoisonedError(const std::string& what, PoisonCause poison_cause,
                       std::exception_ptr cause = {})
      : CounterError(what),
        cause_(std::move(cause)),
        poison_cause_(poison_cause) {}

  /// The producer's original exception, if the counter was poisoned
  /// with one; null otherwise.
  const std::exception_ptr& cause() const noexcept { return cause_; }

  /// Machine-readable poison cause (kExplicit unless the cross-process
  /// failure model synthesized this error).
  PoisonCause poison_cause() const noexcept { return poison_cause_; }

 private:
  std::exception_ptr cause_;
  PoisonCause poison_cause_ = PoisonCause::kExplicit;
};

/// Thrown when the engine could not allocate the memory an operation
/// needed (a wait node in Check/CheckFor/CheckUntil, a callback node
/// in OnReach).  Strong guarantee: the counter's observable state —
/// value, wait list, waiter counts, watermark, stats — is exactly what
/// it was before the failed call, and the counter remains usable.
/// Retrying after freeing memory (or after pool capacity frees) is
/// legitimate.  With a preallocated node pool
/// (WaitListOptions::preallocated_nodes, spec token "pooled[:N]")
/// steady-state Check never allocates and this error cannot occur on
/// pooled levels.
class CounterResourceError : public CounterError {
 public:
  using CounterError::CounterError;
};

/// Thrown by the service-plane client (server/client.hpp) when an I/O
/// deadline expires: the server stopped answering within
/// ClientOptions::io_timeout (or a connect attempt blew past
/// connect_timeout), and the caller opted for a typed error instead of
/// an unbounded hang.  Recoverable — the server may merely be slow;
/// retrying (or enabling the client's retry policy) is legitimate.
/// Monotonicity makes the retry safe: an Increment that DID land
/// before the timeout only moves the value up, so re-arming the same
/// Check or re-sending the same deduplicated Increment cannot
/// double-count or regress.
class CounterTimeoutError : public CounterError {
 public:
  using CounterError::CounterError;
};

/// Thrown by the service-plane client when a reconnect lands on a
/// server running a DIFFERENT epoch (the server restarted and restored
/// its name table from the snapshot) and the caller opted out of
/// transparent re-resolution (RetryPolicy::transparent_reresolve =
/// false).  Every counter id minted under the old epoch is invalid;
/// the caller must re-resolve names before continuing.
class CounterEpochChangedError : public CounterError {
 public:
  CounterEpochChangedError(const std::string& what, std::uint64_t old_epoch,
                           std::uint64_t new_epoch)
      : CounterError(what), old_epoch_(old_epoch), new_epoch_(new_epoch) {}

  std::uint64_t old_epoch() const noexcept { return old_epoch_; }
  std::uint64_t new_epoch() const noexcept { return new_epoch_; }

 private:
  std::uint64_t old_epoch_ = 0;
  std::uint64_t new_epoch_ = 0;
};

/// Thrown by the service-plane client when the server answered
/// kShuttingDown: an ORDERLY drain (SIGTERM / CounterServer::Drain),
/// not a crash.  Distinguishing the two is what keeps a fleet of
/// retrying clients from turning a rolling restart into a retry
/// storm — a shutdown-aware client backs off on a drain grace period
/// instead of hammering the listener the moment it closes.
class CounterShutdownError : public CounterError {
 public:
  using CounterError::CounterError;
};

/// Thrown under OverloadPolicy::kThrow when bounded admission
/// (WaitListOptions::max_waiters) turns a waiter away: the wait list
/// is full and this thread was not allowed to park.  Recoverable —
/// capacity frees as parked waiters are released or time out.  The
/// other overload policy (kBlockIncrementers) backpressures instead
/// of throwing.
class CounterOverloadedError : public CounterError {
 public:
  using CounterError::CounterError;
};

/// Normalizes an exception delivered through OnReach's on_error
/// channel to the blocking surface's contract.  The channel carries
/// the producer's ORIGINAL exception when the poison had one
/// (OnReachErrorCallbackDeliversPoisonCause pins that); surfaces built
/// on the channel that promise "poison throws CounterPoisonedError" —
/// check_any, check_sum_at_least, co_await reach() — wrap anything
/// else, keeping the original reachable via cause().
inline std::exception_ptr ensure_poisoned_error(std::exception_ptr ep) {
  try {
    std::rethrow_exception(ep);
  } catch (const CounterPoisonedError&) {
    return ep;
  } catch (...) {
    return std::make_exception_ptr(CounterPoisonedError(
        "counter poisoned while a waiter was registered on it", ep));
  }
}

}  // namespace monotonic

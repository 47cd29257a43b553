// counter_decorator.hpp — generic decorators over any CounterLike.
//
// The core counters stay hook-free; cross-cutting behaviour composes
// from the outside, and since the policy-based refactor the wrappers
// are generic — any decorator stacks on any implementation (or on
// another decorator, or on a runtime AnyHandle from the spec factory):
//
//   Traced<C>        — emits Tracer events per operation
//   Batching<C>      — §5.3 blocked-writer amortization of Increment
//
// CounterDecoratorBase owns the wrapped counter and forwards the full
// BasicCounter surface (Check/CheckFor/CheckUntil/OnReach/Reset/
// debug_snapshot/stats), so a decorator only overrides the operations
// it actually intercepts.  Forwarding members are instantiated lazily
// (class-template member rule), so wrapping a minimal CounterLike that
// lacks, say, OnReach still compiles as long as nothing calls it.
#pragma once

#include <chrono>
#include <concepts>
#include <cstddef>
#include <exception>
#include <functional>
#include <stop_token>
#include <string_view>
#include <utility>

#include "monotonic/core/counter.hpp"
#include "monotonic/core/counter_concept.hpp"
#include "monotonic/core/counter_stats.hpp"
#include "monotonic/core/wait_list.hpp"
#include "monotonic/support/assert.hpp"
#include "monotonic/support/config.hpp"
#include "monotonic/support/trace.hpp"

namespace monotonic {

/// Tag for decorator constructors that forward trailing arguments to
/// the wrapped counter's constructor.
using inner_args_t = std::in_place_t;
inline constexpr inner_args_t inner_args{};

/// Owns the wrapped counter and forwards the whole counter surface.
/// Decorators derive and override what they intercept.
template <CounterLike C>
class CounterDecoratorBase {
 public:
  using Inner = C;
  static constexpr counter_value_t kMaxValue = detail::counter_max_value<C>();

  CounterDecoratorBase() = default;
  template <typename... Args>
  explicit CounterDecoratorBase(inner_args_t, Args&&... args)
      : impl_(std::forward<Args>(args)...) {}

  CounterDecoratorBase(const CounterDecoratorBase&) = delete;
  CounterDecoratorBase& operator=(const CounterDecoratorBase&) = delete;

  void Increment(counter_value_t amount = 1) { impl_.Increment(amount); }
  void Check(counter_value_t level) { impl_.Check(level); }
  bool Check(counter_value_t level, std::stop_token stop) {
    return impl_.Check(level, std::move(stop));
  }

  // Predicate waits (monotone predicates of the value; see
  // basic_counter.hpp).  Constrained exactly like the engine's
  // overloads so a literal still picks the level path.
  template <typename Pred>
    requires(!std::convertible_to<Pred, counter_value_t> &&
             std::predicate<Pred&, counter_value_t>)
  void Check(Pred pred) {
    impl_.Check(std::move(pred));
  }
  template <typename Pred>
    requires(!std::convertible_to<Pred, counter_value_t> &&
             std::predicate<Pred&, counter_value_t>)
  bool Check(Pred pred, std::stop_token stop) {
    return impl_.Check(std::move(pred), std::move(stop));
  }

  template <typename Rep, typename Period>
  bool CheckFor(counter_value_t level,
                std::chrono::duration<Rep, Period> timeout) {
    return impl_.CheckFor(level, timeout);
  }

  template <typename Clock, typename Duration>
  bool CheckUntil(counter_value_t level,
                  std::chrono::time_point<Clock, Duration> deadline) {
    return impl_.CheckUntil(level, deadline);
  }

  void OnReach(counter_value_t level, std::function<void()> fn,
               std::function<void(std::exception_ptr)> on_error = {}) {
    impl_.OnReach(level, std::move(fn), std::move(on_error));
  }

  void Poison(std::exception_ptr cause) { impl_.Poison(std::move(cause)); }
  void Poison(std::string_view reason) { impl_.Poison(reason); }
  bool poisoned() const { return impl_.poisoned(); }

  void Reset() { impl_.Reset(); }

  CounterDebugSnapshot debug_snapshot() const { return impl_.debug_snapshot(); }
  counter_value_t debug_value() const { return impl_.debug_value(); }
  /// Monotone lower bound of the value — sanctioned for multi.hpp
  /// trigger computation (unlike debug_value, which is debug-only).
  counter_value_t value_lower_bound() const {
    return impl_.value_lower_bound();
  }
  CounterStatsSnapshot stats() const { return impl_.stats(); }
  void stats_reset() { impl_.stats_reset(); }

  /// Value-plane stripes of the wrapped counter (1 when unsharded).
  std::size_t stripe_count() const noexcept {
    return detail::stripe_count_of(impl_);
  }

  C& inner() noexcept { return impl_; }
  const C& inner() const noexcept { return impl_; }

 protected:
  ~CounterDecoratorBase() = default;  // not used polymorphically

  C impl_;
};

/// Tracer-instrumented counter.  `name` must have static storage
/// duration (string literal).  Records increment / fast-check / resume
/// events; the fast/slow classification reuses the wrapped counter's
/// own stats (suspension delta), so it stays truthful for every policy.
template <CounterLike C = Counter>
class Traced : public CounterDecoratorBase<C> {
 public:
  explicit Traced(const char* name = "counter",
                  Tracer& tracer = Tracer::global())
      : name_(name), tracer_(tracer) {}
  template <typename... Args>
  Traced(const char* name, Tracer& tracer, inner_args_t, Args&&... args)
      : CounterDecoratorBase<C>(inner_args, std::forward<Args>(args)...),
        name_(name),
        tracer_(tracer) {}

  void Increment(counter_value_t amount = 1) {
    if (!tracer_.enabled()) {  // keep the disabled path one atomic load
      this->impl_.Increment(amount);
      return;
    }
    tracer_.record(TraceEventKind::kIncrement, name_, amount);
    // Stripe-collapse visibility: when the wrapped counter's collapse
    // count moved across this Increment, the add crossed the armed
    // watermark and paid a slow pass — worth a lens event (same
    // stats-delta approximation as the fast/slow Check split below).
    const auto before = this->impl_.stats().collapses;
    this->impl_.Increment(amount);
    if (this->impl_.stats().collapses != before) {
      tracer_.record(TraceEventKind::kCollapse, name_, amount);
    }
  }

  using CounterDecoratorBase<C>::Check;  // keep the cancellable overload

  void Check(counter_value_t level) {
    // Distinguish fast and slow paths by the stats delta — the wrapped
    // counter already classifies them.
    const auto before = this->impl_.stats().suspensions;
    this->impl_.Check(level);
    if (this->impl_.stats().suspensions != before) {
      // We were parked (approximately: another thread's suspension in
      // the same window can misattribute; good enough for a lens).
      tracer_.record(TraceEventKind::kResume, name_, level);
    } else {
      tracer_.record(TraceEventKind::kCheckFast, name_, level);
    }
  }

  /// Predicate waits get the same fast/slow classification as level
  /// waits; the recorded arg is the reduced threshold's reach, which
  /// the engine does not expose, so 0 stands in.
  template <typename Pred>
    requires(!std::convertible_to<Pred, counter_value_t> &&
             std::predicate<Pred&, counter_value_t>)
  void Check(Pred pred) {
    const auto before = this->impl_.stats().suspensions;
    this->impl_.Check(std::move(pred));
    if (this->impl_.stats().suspensions != before) {
      tracer_.record(TraceEventKind::kResume, name_, 0);
    } else {
      tracer_.record(TraceEventKind::kCheckFast, name_, 0);
    }
  }

  /// Completion-plane lens: each registered callback is wrapped to emit
  /// a kCompletion event when it actually runs — on the incrementing
  /// thread inline, or on an executor thread when the counter was built
  /// with one, which is exactly the handoff the lens exists to show.
  /// The tracer must outlive any pending callback (Tracer::global()
  /// trivially does).
  void OnReach(counter_value_t level, std::function<void()> fn,
               std::function<void(std::exception_ptr)> on_error = {}) {
    std::function<void()> wrapped =
        [&t = tracer_, name = name_, level, fn = std::move(fn)] {
          fn();
          if (t.enabled()) t.record(TraceEventKind::kCompletion, name, level);
        };
    std::function<void(std::exception_ptr)> wrapped_error;
    if (on_error) {
      wrapped_error = [&t = tracer_, name = name_, level,
                       on_error = std::move(on_error)](std::exception_ptr ep) {
        on_error(std::move(ep));
        if (t.enabled()) t.record(TraceEventKind::kCompletion, name, level);
      };
    }
    this->impl_.OnReach(level, std::move(wrapped), std::move(wrapped_error));
  }

  void Poison(std::exception_ptr cause) {
    tracer_.record(TraceEventKind::kPoison, name_, 0);
    this->impl_.Poison(std::move(cause));
  }

  void Poison(std::string_view reason) {
    tracer_.record(TraceEventKind::kPoison, name_, 0);
    this->impl_.Poison(reason);
  }

  /// Back-compat accessor (pre-refactor TracedCounter name).
  C& impl() noexcept { return this->impl_; }

 private:
  const char* name_;
  Tracer& tracer_;
};

/// §5.3 blocked-writer amortization as a thread-safe decorator:
/// increments accumulate in an atomic pending cell and are pushed to
/// the wrapped counter in batches of `batch` units.  Check-side
/// operations flush first, so a thread always observes its own
/// increments (and batch=1 is an exact pass-through, which is what the
/// conformance suite instantiates).
///
/// Unlike BatchingIncrementer (batching_counter.hpp) — a per-thread
/// front-end sharing one counter — Batching<C> *is* a counter, so it
/// can appear anywhere a CounterLike is expected, including inside
/// other decorators and the spec factory ("hybrid+batching,batch=64").
template <CounterLike C = Counter>
class Batching : public CounterDecoratorBase<C> {
 public:
  explicit Batching(counter_value_t batch = 1) : batch_(batch) {
    MC_REQUIRE(batch >= 1, "batch size must be positive");
  }
  template <typename... Args>
  Batching(counter_value_t batch, inner_args_t, Args&&... args)
      : CounterDecoratorBase<C>(inner_args, std::forward<Args>(args)...),
        batch_(batch) {
    MC_REQUIRE(batch >= 1, "batch size must be positive");
  }

  /// Flushes any buffered amount on destruction, so no increment is
  /// ever lost (mirrors BroadcastChannel::Writer).
  ~Batching() { flush(); }

  void Increment(counter_value_t amount = 1) {
    if (amount == 0) {
      this->impl_.Increment(0);  // still a (counted) no-op downstream
      return;
    }
    const counter_value_t total =
        pending_.fetch_add(amount, std::memory_order_relaxed) + amount;
    if (total >= batch_) flush();
  }

  void Check(counter_value_t level) {
    flush();
    this->impl_.Check(level);
  }

  bool Check(counter_value_t level, std::stop_token stop) {
    flush();
    return this->impl_.Check(level, std::move(stop));
  }

  // Predicate evaluation must see this thread's own increments, so the
  // buffer flushes before the engine reduces the predicate to a level.
  template <typename Pred>
    requires(!std::convertible_to<Pred, counter_value_t> &&
             std::predicate<Pred&, counter_value_t>)
  void Check(Pred pred) {
    flush();
    this->impl_.Check(std::move(pred));
  }
  template <typename Pred>
    requires(!std::convertible_to<Pred, counter_value_t> &&
             std::predicate<Pred&, counter_value_t>)
  bool Check(Pred pred, std::stop_token stop) {
    flush();
    return this->impl_.Check(std::move(pred), std::move(stop));
  }

  template <typename Rep, typename Period>
  bool CheckFor(counter_value_t level,
                std::chrono::duration<Rep, Period> timeout) {
    flush();
    return this->impl_.CheckFor(level, timeout);
  }

  template <typename Clock, typename Duration>
  bool CheckUntil(counter_value_t level,
                  std::chrono::time_point<Clock, Duration> deadline) {
    flush();
    return this->impl_.CheckUntil(level, deadline);
  }

  void OnReach(counter_value_t level, std::function<void()> fn,
               std::function<void(std::exception_ptr)> on_error = {}) {
    flush();
    this->impl_.OnReach(level, std::move(fn), std::move(on_error));
  }

  /// Flush-then-poison: buffered increments represent work that DID
  /// happen before the failure, so they are published first — the
  /// frozen value reflects completed work, and only the future is cut
  /// off.  (Flushing after the poison would silently drop them.)
  void Poison(std::exception_ptr cause) {
    flush();
    this->impl_.Poison(std::move(cause));
  }

  void Poison(std::string_view reason) {
    flush();
    this->impl_.Poison(reason);
  }

  /// Applies buffered increments, then resets the wrapped counter.
  void Reset() {
    flush();
    this->impl_.Reset();
  }

  /// Pushes the buffered amount immediately.
  void flush() {
    const counter_value_t drained =
        pending_.exchange(0, std::memory_order_relaxed);
    if (drained > 0) this->impl_.Increment(drained);
  }

  /// Buffered amount not yet visible downstream (lags debug_value()).
  counter_value_t pending() const noexcept {
    return pending_.load(std::memory_order_relaxed);
  }

 private:
  const counter_value_t batch_;
  std::atomic<counter_value_t> pending_{0};
};

}  // namespace monotonic

// counter_concept.hpp — the compile-time interfaces counter
// implementations share, for generic algorithms, decorators and typed
// tests.  Split in three tiers so a component can demand exactly what
// it uses: the patterns layer mostly needs CounterLike, timed helpers
// need TimedCounterLike, and the Figure-2 tests need
// IntrospectableCounter.
#pragma once

#include <chrono>
#include <concepts>
#include <cstddef>
#include <exception>
#include <functional>
#include <limits>
#include <stop_token>

#include "monotonic/core/wait_list.hpp"
#include "monotonic/support/config.hpp"

namespace monotonic {

namespace detail {

/// Number of value-plane stripes of any counter-like object: its own
/// stripe_count() when it has one, else 1 (unsharded).  Lets the
/// decorators and AnyCounter forward stripe metadata without requiring
/// every CounterLike to grow the accessor.
template <typename C>
std::size_t stripe_count_of(const C& c) noexcept {
  if constexpr (requires {
                  { c.stripe_count() } -> std::convertible_to<std::size_t>;
                }) {
    return c.stripe_count();
  } else {
    return 1;
  }
}

/// kMaxValue of a counter type when it advertises one; otherwise the
/// conservative lock-free bound (safe for any implementation).
template <typename C>
constexpr counter_value_t counter_max_value() {
  if constexpr (requires { C::kMaxValue; }) {
    return C::kMaxValue;
  } else {
    return std::numeric_limits<counter_value_t>::max() >> 1;
  }
}

}  // namespace detail

/// Anything with the paper's two fundamental operations.  The patterns
/// and algos layers are templated on this, so every experiment can be
/// run against every implementation (E10 ablation).
template <typename C>
concept CounterLike = requires(C c, counter_value_t v) {
  { c.Increment(v) };
  { c.Check(v) };
};

/// CounterLike plus the timed and asynchronous check extensions.
/// Every BasicCounter instantiation (and every decorator over one)
/// models this since the policy-based refactor.
template <typename C>
concept TimedCounterLike =
    CounterLike<C> &&
    requires(C c, counter_value_t v, std::chrono::milliseconds d,
             std::chrono::steady_clock::time_point tp,
             std::function<void()> fn) {
      { c.CheckFor(v, d) } -> std::convertible_to<bool>;
      { c.CheckUntil(v, tp) } -> std::convertible_to<bool>;
      { c.OnReach(v, fn) };
    };

/// CounterLike plus the failure model (see counter_error.hpp): poison
/// with a cause, observe the poisoned state, and park cancellably.
/// Every BasicCounter instantiation and every shipped decorator models
/// this; the patterns layer (pipeline, broadcast, structured scopes)
/// requires it to unwind instead of hanging when a producer dies.
template <typename C>
concept FailureAwareCounter =
    CounterLike<C> &&
    requires(C c, counter_value_t v, std::exception_ptr ep,
             std::stop_token st) {
      { c.Poison(ep) };
      { c.poisoned() } -> std::convertible_to<bool>;
      { c.Check(v, st) } -> std::convertible_to<bool>;
    };

/// CounterLike plus the predicate-wait surface (see §AutoSynch in
/// docs/semantics.md): park until an arbitrary *monotone* predicate of
/// the value holds, read a conservative lower bound of the value for
/// trigger computation, and register error-aware OnReach callbacks —
/// everything multi.hpp's check_any / check_sum_at_least need.  Every
/// BasicCounter instantiation and every shipped decorator models this.
template <typename C>
concept PredicateCounterLike =
    CounterLike<C> &&
    requires(C c, const C cc, counter_value_t v, std::function<void()> fn,
             std::function<void(std::exception_ptr)> on_error,
             std::function<bool(counter_value_t)> pred) {
      { c.Check(pred) };
      { cc.value_lower_bound() } -> std::convertible_to<counter_value_t>;
      { c.OnReach(v, fn, on_error) };
    };

/// A counter whose internal wait-list structure can be observed — what
/// the Figure 2 reproduction tests and the stats-driven benches demand.
template <typename C>
concept IntrospectableCounter =
    CounterLike<C> && requires(const C c) {
      { c.debug_snapshot() } -> std::convertible_to<CounterDebugSnapshot>;
      { c.debug_value() } -> std::convertible_to<counter_value_t>;
      { c.stats() };
    };

}  // namespace monotonic

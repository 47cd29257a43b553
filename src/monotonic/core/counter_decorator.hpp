// counter_decorator.hpp — generic decorators over any CounterLike.
//
// The core counters stay hook-free; cross-cutting behaviour composes
// from the outside, and since the policy-based refactor the wrappers
// are generic — any decorator stacks on any implementation (or on
// another decorator, or on a runtime AnyHandle from the spec factory):
//
//   Traced<C>        — emits Tracer events per operation
//   Batching<C>      — §5.3 blocked-writer amortization of Increment
//   Broadcasting<C>  — S-shard replication: Increment fans out to every
//                      shard, Check reads a thread-local shard, spreading
//                      waiter contention across S locks
//
// CounterDecoratorBase owns the wrapped counter and forwards the full
// BasicCounter surface (Check/CheckFor/CheckUntil/OnReach/Reset/
// debug_snapshot/stats), so a decorator only overrides the operations
// it actually intercepts.  Forwarding members are instantiated lazily
// (class-template member rule), so wrapping a minimal CounterLike that
// lacks, say, OnReach still compiles as long as nothing calls it.
#pragma once

#include <algorithm>
#include <chrono>
#include <concepts>
#include <cstddef>
#include <exception>
#include <functional>
#include <memory>
#include <stop_token>
#include <string_view>
#include <thread>
#include <utility>
#include <vector>

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

/// S-shard replicated counter: Increment fans out to every shard (in
/// shard order), Check and the timed variants go to a shard picked by
/// the calling thread's id.  Every shard carries the full value, so any
/// shard answers any Check correctly; what sharding buys is S
/// independent locks/wait-lists, spreading waiter contention (the E6
/// many-waiters regime) at the cost of S-fold Increment work — the
/// classic read-mostly broadcast trade.
template <CounterLike C = Counter>
class Broadcasting {
 public:
  using Inner = C;
  static constexpr std::size_t kDefaultShards = 4;
  static constexpr counter_value_t kMaxValue = detail::counter_max_value<C>();

  explicit Broadcasting(std::size_t shards = kDefaultShards) {
    MC_REQUIRE(shards >= 1, "Broadcasting requires at least one shard");
    shards_.reserve(shards);
    for (std::size_t i = 0; i < shards; ++i) {
      shards_.push_back(std::make_unique<C>());
    }
  }
  /// `make(i)` builds shard i — how the spec factory threads a full
  /// inner spec ("broadcast,shards=2+hybrid") through to each shard.
  template <typename Factory>
    requires requires(Factory f, std::size_t i) {
      { f(i) } -> std::convertible_to<std::unique_ptr<C>>;
    }
  Broadcasting(std::size_t shards, Factory&& make) {
    MC_REQUIRE(shards >= 1, "Broadcasting requires at least one shard");
    shards_.reserve(shards);
    for (std::size_t i = 0; i < shards; ++i) shards_.push_back(make(i));
  }

  Broadcasting(const Broadcasting&) = delete;
  Broadcasting& operator=(const Broadcasting&) = delete;

  void Increment(counter_value_t amount = 1) {
    for (auto& shard : shards_) shard->Increment(amount);
  }

  void Check(counter_value_t level) { local_shard().Check(level); }

  bool Check(counter_value_t level, std::stop_token stop) {
    return local_shard().Check(level, std::move(stop));
  }

  // Predicate waits route to the thread's shard like level waits —
  // every shard carries the full value, so any shard reduces the
  // predicate to the same threshold.
  template <typename Pred>
    requires(!std::convertible_to<Pred, counter_value_t> &&
             std::predicate<Pred&, counter_value_t>)
  void Check(Pred pred) {
    local_shard().Check(std::move(pred));
  }
  template <typename Pred>
    requires(!std::convertible_to<Pred, counter_value_t> &&
             std::predicate<Pred&, counter_value_t>)
  bool Check(Pred pred, std::stop_token stop) {
    return local_shard().Check(std::move(pred), std::move(stop));
  }

  template <typename Rep, typename Period>
  bool CheckFor(counter_value_t level,
                std::chrono::duration<Rep, Period> timeout) {
    return local_shard().CheckFor(level, timeout);
  }

  template <typename Clock, typename Duration>
  bool CheckUntil(counter_value_t level,
                  std::chrono::time_point<Clock, Duration> deadline) {
    return local_shard().CheckUntil(level, deadline);
  }

  /// Callbacks register on shard 0 (every shard sees every increment,
  /// so shard 0's trigger times equal any other's).
  void OnReach(counter_value_t level, std::function<void()> fn,
               std::function<void(std::exception_ptr)> on_error = {}) {
    shards_.front()->OnReach(level, std::move(fn), std::move(on_error));
  }

  /// Poison fans out to every shard, in shard order, so waiters parked
  /// on any shard are woken.  A Check racing the fan-out on a not-yet-
  /// poisoned shard simply parks and is woken when the wave reaches it.
  void Poison(std::exception_ptr cause) {
    for (auto& shard : shards_) shard->Poison(cause);
  }

  void Poison(std::string_view reason) {
    for (auto& shard : shards_) shard->Poison(reason);
  }

  /// Shard 0 is poisoned first, so it answers for the ensemble.
  bool poisoned() const { return shards_.front()->poisoned(); }

  void Reset() {
    for (auto& shard : shards_) shard->Reset();
  }

  /// Merged snapshot: the (replicated) value from shard 0, wait levels
  /// summed across shards, callback levels from shard 0.
  CounterDebugSnapshot debug_snapshot() const {
    CounterDebugSnapshot merged = shards_.front()->debug_snapshot();
    for (std::size_t i = 1; i < shards_.size(); ++i) {
      merge_wait_levels(merged.wait_levels,
                        shards_[i]->debug_snapshot().wait_levels);
    }
    return merged;
  }

  counter_value_t debug_value() const {
    return shards_.front()->debug_value();
  }

  /// Any shard's bound is a bound for the ensemble (replicated value);
  /// shard 0 is the one callbacks register on.
  counter_value_t value_lower_bound() const {
    return shards_.front()->value_lower_bound();
  }

  /// Summed across shards, with increments normalized back to logical
  /// operations (each logical Increment touched every shard).  The
  /// max_live_* high-water marks are summed too — an upper bound, since
  /// the shards need not have peaked simultaneously.
  CounterStatsSnapshot stats() const {
    CounterStatsSnapshot sum{};
    for (auto& shard : shards_) {
      const CounterStatsSnapshot s = shard->stats();
      sum.increments += s.increments;
      sum.checks += s.checks;
      sum.fast_checks += s.fast_checks;
      sum.suspensions += s.suspensions;
      sum.wakeups += s.wakeups;
      sum.notifies += s.notifies;
      sum.nodes_allocated += s.nodes_allocated;
      sum.nodes_pooled += s.nodes_pooled;
      sum.live_nodes += s.live_nodes;
      sum.max_live_nodes += s.max_live_nodes;
      sum.max_live_waiters += s.max_live_waiters;
      sum.spurious_wakeups += s.spurious_wakeups;
      sum.poisons += s.poisons;
      sum.aborted_wakeups += s.aborted_wakeups;
      sum.cancelled_checks += s.cancelled_checks;
      sum.dropped_increments += s.dropped_increments;
      sum.stall_reports += s.stall_reports;
      sum.collapses += s.collapses;
      sum.fast_path_increments += s.fast_path_increments;
      // Stripe count is configuration, not a tally: report the widest
      // shard (they normally agree).
      sum.stripe_count = std::max(sum.stripe_count, s.stripe_count);
    }
    sum.increments /= shards_.size();
    // Replicated per shard, like increments: one logical Poison (or
    // dropped Increment) touched every shard, and each logical
    // Increment took one fast-or-slow path per shard.
    sum.poisons /= shards_.size();
    sum.dropped_increments /= shards_.size();
    sum.fast_path_increments /= shards_.size();
    return sum;
  }
  void stats_reset() {
    for (auto& shard : shards_) shard->stats_reset();
  }

  std::size_t shard_count() const noexcept { return shards_.size(); }
  C& shard(std::size_t i) { return *shards_[i]; }

  /// Widest value plane across shards (1 when the shards are unsharded).
  std::size_t stripe_count() const noexcept {
    std::size_t widest = 1;
    for (const auto& shard : shards_) {
      widest = std::max(widest, detail::stripe_count_of(*shard));
    }
    return widest;
  }

 private:
  C& local_shard() {
    const std::size_t i =
        std::hash<std::thread::id>{}(std::this_thread::get_id()) %
        shards_.size();
    return *shards_[i];
  }

  static void merge_wait_levels(std::vector<DebugWaitLevel>& into,
                                const std::vector<DebugWaitLevel>& from) {
    std::vector<DebugWaitLevel> merged;
    merged.reserve(into.size() + from.size());
    std::size_t a = 0, b = 0;
    while (a < into.size() || b < from.size()) {
      if (b >= from.size() ||
          (a < into.size() && into[a].level < from[b].level)) {
        merged.push_back(into[a++]);
      } else if (a >= into.size() || from[b].level < into[a].level) {
        merged.push_back(from[b++]);
      } else {
        merged.push_back(
            DebugWaitLevel{into[a].level, into[a].waiters + from[b].waiters});
        ++a;
        ++b;
      }
    }
    into = std::move(merged);
  }

  std::vector<std::unique_ptr<C>> shards_;
};

}  // namespace monotonic

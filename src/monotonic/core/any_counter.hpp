// any_counter.hpp — runtime-polymorphic counter handle + spec factory.
//
// Benches and examples select an implementation by name on the command
// line; AnyCounter type-erases the implementations behind one virtual
// interface.  Hot paths in the library itself stay templated on
// CounterLike — this wrapper exists only at harness boundaries.
//
// Since the policy-based refactor every implementation supports the
// full BasicCounter surface, so the virtual interface carries the
// timed/async operations and introspection too, and make_counter has
// a *spec-string* overload:
//
//   spec     := ['sharded'[':'N] '+'] ['pooled'[':'N] '+']
//               base ('+' layer)*
//   base     := kind (',' key '=' value)*          e.g. "list,pool=0"
//   layer    := name (',' key '=' value)*          e.g. "batching,batch=64"
//
//   kinds:      list, list-nopool, single-cv, futex, spin, hybrid
//   sharded:    stripes the *value plane* (striped_cells.hpp) under the
//               chosen base; ":N" fixes the stripe count, otherwise it
//               is sized from hardware_concurrency.  Bare "sharded" is
//               shorthand for "sharded+hybrid".
//   pooled:     preallocates N wait nodes (default 64) so Check on a
//               hot level never allocates in steady state; canonical
//               form always prints the count ("pooled:64").  A spec of
//               just "pooled[:N]" is shorthand for "pooled[:N]+hybrid".
//   base opts:  pool=0|1                           (wait-node pooling)
//               max_waiters=N                      (admission bound;
//               0 = unbounded), overload=throw|block (what an over-cap
//               waiter gets: CounterOverloadedError or the admission
//               gate),
//               waitplane=heap:S                   (S level shards of
//               the wait index, 1..64 — see wait_index.hpp; bare
//               list|heap = the default one shard)
//   removed, still parsed for old state files:
//               overload=spin = overload=block; max_levels=L folds to
//               max_waiters=min(N, L) (live levels never outnumber
//               waiters); pool_size=N is ignored (the pool keeps a
//               constant 64 freed nodes, or the pooled:N count);
//               the layers +traced, +batching[,batch=N] and
//               +broadcast[,shards=N] are dropped, so every Increment
//               releases the levels it reaches (paper §7; per-writer
//               batching is BatchingIncrementer's, batching_counter.hpp)
//
// spec() returns the canonical form, so bench tables are
// self-describing and specs round-trip; "hybrid+traced" is "hybrid".
// Malformed specs — unknown kinds/layers, a duplicated layer, options
// on the wrong component — throw std::invalid_argument naming the bad
// token ("hybrid+traced+traced" → "duplicate decorator 'traced' ...").
#pragma once

#include <chrono>
#include <concepts>
#include <cstddef>
#include <exception>
#include <functional>
#include <memory>
#include <stop_token>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "monotonic/core/counter_concept.hpp"
#include "monotonic/core/counter_error.hpp"
#include "monotonic/core/counter_stats.hpp"
#include "monotonic/core/wait_list.hpp"
#include "monotonic/support/assert.hpp"
#include "monotonic/support/config.hpp"

namespace monotonic {

enum class CounterKind {
  kList,        ///< Counter — paper §7 wait-list implementation
  kListNoPool,  ///< Counter with the node pool disabled (ablation)
  kSingleCv,    ///< SingleCvCounter — broadcast baseline
  kFutex,       ///< FutexCounter — kernel-queue implementation
  kSpin,        ///< SpinCounter — busy-wait implementation
  kHybrid,      ///< HybridCounter — lock-free fast path + §7 slow path
  /// SharedCounter — cross-process counter in a named shm segment
  /// (shared_counter.hpp).  Spec-only ("shared:/name"): it needs a
  /// name, so it has no bare make_counter(kind) form and is excluded
  /// from all_counter_kinds() sweeps.
  kShared,
};

/// Human-readable name ("list", "list-nopool", "single-cv", ...).
std::string_view to_string(CounterKind kind);

/// Parses a kind name; throws std::invalid_argument on unknown names.
CounterKind counter_kind_from_string(std::string_view name);

/// All kinds, in a stable order, for sweeps.
const std::vector<CounterKind>& all_counter_kinds();

/// Type-erased counter carrying the full BasicCounter surface.
class AnyCounter {
 public:
  virtual ~AnyCounter() = default;
  virtual void Increment(counter_value_t amount) = 0;
  virtual void Check(counter_value_t level) = 0;
  /// Timed Check; true iff the level was reached before the timeout.
  virtual bool CheckFor(counter_value_t level,
                        std::chrono::nanoseconds timeout) = 0;
  /// Cancellable Check; see BasicCounter::Check(level, stop_token).
  virtual bool Check(counter_value_t level, std::stop_token stop) = 0;
  /// Predicate wait: parks until `pred(value)` holds.  The predicate
  /// must be monotone (once true, stays true as the value rises); the
  /// engine reduces it to an exact threshold (basic_counter.hpp).
  /// Named CheckWhen because virtuals cannot be templates; AnyHandle
  /// re-exposes it as Check(pred) to match the concrete counters.
  virtual void CheckWhen(std::function<bool(counter_value_t)> pred) = 0;
  /// Cancellable predicate wait; false iff `stop` fired first.
  virtual bool CheckWhen(std::function<bool(counter_value_t)> pred,
                         std::stop_token stop) = 0;
  /// Monotone lower bound of the value — the sanctioned read for
  /// multi.hpp trigger computation (debug_value is debug-only).
  virtual counter_value_t value_lower_bound() const = 0;
  /// Largest value the counter is guaranteed to hold; an Increment
  /// carrying it further may throw std::invalid_argument.
  virtual counter_value_t max_value() const = 0;
  /// Async Check; see BasicCounter::OnReach for the execution contract.
  virtual void OnReach(counter_value_t level, std::function<void()> fn) = 0;
  /// Async Check with a poison-delivery callback.
  virtual void OnReach(counter_value_t level, std::function<void()> fn,
                       std::function<void(std::exception_ptr)> on_error) = 0;
  /// Failure model; see BasicCounter::Poison / poisoned().
  virtual void Poison(std::exception_ptr cause) = 0;
  virtual bool poisoned() const = 0;
  virtual void Reset() = 0;
  virtual CounterDebugSnapshot debug_snapshot() const = 0;
  virtual counter_value_t debug_value() const = 0;
  virtual CounterStatsSnapshot stats() const = 0;
  virtual void stats_reset() = 0;
  /// Value-plane stripes of the innermost implementation (1 when
  /// unsharded; >1 only for "sharded[:N]+..." specs).
  virtual std::size_t stripe_count() const = 0;
  /// Kind of the innermost (base) implementation.
  virtual CounterKind kind() const = 0;
  /// Canonical spec string ("sharded:4+hybrid"); round-trips through
  /// make_counter(spec).
  virtual const std::string& spec() const = 0;
};

/// Creates an undecorated counter of the given kind.
std::unique_ptr<AnyCounter> make_counter(CounterKind kind);

/// Creates a counter from a spec string — see the grammar in the header
/// comment.  Throws std::invalid_argument on malformed specs, unknown
/// kinds/layers/options.
std::unique_ptr<AnyCounter> make_counter(std::string_view spec);

/// Builds `spec` for a host that runs every completion on `executor`
/// (null = inline on the incrementing thread).  The counter delivers
/// its OnReach / predicate completions there whatever the spec says:
/// an "executor=inline|pool[:N]" token is ignored, so no pool starts
/// and the canonical spec names none.  Removed layers are dropped as by
/// make_counter(spec), but a "+batching" layer's options go unchecked.
/// The counter server builds every engine this way with one
/// InlineExecutor, so each completion runs on its loop thread.  Throws
/// std::invalid_argument naming the spec for "shared:" specs, whose
/// OnReach runs on a watcher thread per wait.
std::unique_ptr<AnyCounter> make_counter(
    std::string_view spec, std::shared_ptr<CompletionExecutor> executor);

/// One-line usage string for CLIs (--counter=SPEC help text).
std::string_view counter_spec_help();

/// Owning CounterLike view over a type-erased counter, so anything
/// templated on CounterLike (the predicate and awaitable helpers, the
/// patterns) can run over a runtime-selected counter.
class AnyHandle {
 public:
  explicit AnyHandle(std::unique_ptr<AnyCounter> inner)
      : inner_(std::move(inner)) {
    MC_REQUIRE(inner_ != nullptr, "AnyHandle requires a counter");
  }
  AnyHandle(AnyHandle&&) noexcept = default;
  AnyHandle& operator=(AnyHandle&&) noexcept = default;

  void Increment(counter_value_t amount = 1) { inner_->Increment(amount); }
  void Check(counter_value_t level) { inner_->Check(level); }

  template <typename Rep, typename Period>
  bool CheckFor(counter_value_t level,
                std::chrono::duration<Rep, Period> timeout) {
    return inner_->CheckFor(
        level, std::chrono::duration_cast<std::chrono::nanoseconds>(timeout));
  }

  template <typename Clock, typename Duration>
  bool CheckUntil(counter_value_t level,
                  std::chrono::time_point<Clock, Duration> deadline) {
    const auto remaining = deadline - Clock::now();
    return inner_->CheckFor(
        level, remaining.count() > 0
                   ? std::chrono::duration_cast<std::chrono::nanoseconds>(
                         remaining)
                   : std::chrono::nanoseconds{0});
  }

  bool Check(counter_value_t level, std::stop_token stop) {
    return inner_->Check(level, std::move(stop));
  }

  // Predicate waits, same constraints as BasicCounter's overloads so
  // AnyHandle models PredicateCounterLike.
  template <typename Pred>
    requires(!std::convertible_to<Pred, counter_value_t> &&
             std::predicate<Pred&, counter_value_t>)
  void Check(Pred pred) {
    inner_->CheckWhen(std::function<bool(counter_value_t)>(std::move(pred)));
  }
  template <typename Pred>
    requires(!std::convertible_to<Pred, counter_value_t> &&
             std::predicate<Pred&, counter_value_t>)
  bool Check(Pred pred, std::stop_token stop) {
    return inner_->CheckWhen(
        std::function<bool(counter_value_t)>(std::move(pred)),
        std::move(stop));
  }

  counter_value_t value_lower_bound() const {
    return inner_->value_lower_bound();
  }

  void OnReach(counter_value_t level, std::function<void()> fn,
               std::function<void(std::exception_ptr)> on_error = {}) {
    if (on_error) {
      inner_->OnReach(level, std::move(fn), std::move(on_error));
    } else {
      inner_->OnReach(level, std::move(fn));
    }
  }

  void Poison(std::exception_ptr cause) { inner_->Poison(std::move(cause)); }
  /// Reason-string convenience mirroring BasicCounter::Poison(reason).
  void Poison(std::string_view reason) {
    inner_->Poison(
        std::make_exception_ptr(CounterPoisonedError(std::string(reason))));
  }
  bool poisoned() const { return inner_->poisoned(); }

  void Reset() { inner_->Reset(); }
  CounterDebugSnapshot debug_snapshot() const {
    return inner_->debug_snapshot();
  }
  counter_value_t debug_value() const { return inner_->debug_value(); }
  CounterStatsSnapshot stats() const { return inner_->stats(); }
  void stats_reset() { inner_->stats_reset(); }
  std::size_t stripe_count() const { return inner_->stripe_count(); }
  CounterKind kind() const { return inner_->kind(); }
  const std::string& spec() const { return inner_->spec(); }

 private:
  std::unique_ptr<AnyCounter> inner_;
};

namespace detail {

/// Adapts a concrete counter to AnyCounter.  Kind and spec are runtime
/// data: "list" and "list-nopool" share one Counter instantiation.
template <typename C>
class CounterModel final : public AnyCounter {
 public:
  template <typename... Args>
  CounterModel(CounterKind kind, std::string spec, Args&&... args)
      : kind_(kind),
        spec_(std::move(spec)),
        impl_(std::forward<Args>(args)...) {}

  void Increment(counter_value_t amount) override { impl_.Increment(amount); }
  void Check(counter_value_t level) override { impl_.Check(level); }
  bool CheckFor(counter_value_t level,
                std::chrono::nanoseconds timeout) override {
    return impl_.CheckFor(level, timeout);
  }
  bool Check(counter_value_t level, std::stop_token stop) override {
    return impl_.Check(level, std::move(stop));
  }
  void CheckWhen(std::function<bool(counter_value_t)> pred) override {
    impl_.Check(std::move(pred));
  }
  bool CheckWhen(std::function<bool(counter_value_t)> pred,
                 std::stop_token stop) override {
    return impl_.Check(std::move(pred), std::move(stop));
  }
  counter_value_t value_lower_bound() const override {
    return impl_.value_lower_bound();
  }
  counter_value_t max_value() const override {
    return detail::counter_max_value<C>();
  }
  void OnReach(counter_value_t level, std::function<void()> fn) override {
    impl_.OnReach(level, std::move(fn));
  }
  void OnReach(counter_value_t level, std::function<void()> fn,
               std::function<void(std::exception_ptr)> on_error) override {
    impl_.OnReach(level, std::move(fn), std::move(on_error));
  }
  void Poison(std::exception_ptr cause) override {
    impl_.Poison(std::move(cause));
  }
  bool poisoned() const override { return impl_.poisoned(); }
  void Reset() override { impl_.Reset(); }
  CounterDebugSnapshot debug_snapshot() const override {
    return impl_.debug_snapshot();
  }
  counter_value_t debug_value() const override { return impl_.debug_value(); }
  CounterStatsSnapshot stats() const override { return impl_.stats(); }
  void stats_reset() override { impl_.stats_reset(); }
  std::size_t stripe_count() const override {
    return detail::stripe_count_of(impl_);
  }
  CounterKind kind() const override { return kind_; }
  const std::string& spec() const override { return spec_; }

 private:
  CounterKind kind_;
  std::string spec_;
  C impl_;
};

}  // namespace detail

}  // namespace monotonic

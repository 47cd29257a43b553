// counter_failure_test.cpp — the failure model, run against every
// implementation and every decorated composition.
//
// The engine's failure model (poison, cancellation, stall watchdog —
// see counter_error.hpp) is policy-independent machinery, so like the
// conformance suite it is typed over all five BasicCounter
// instantiations plus Traced/Batching compositions: a
// policy or decorator cannot silently strand a waiter.  The scenarios
// matching the §6 caveat: poison-then-check, poison-while-parked,
// poison racing increments, cooperative cancellation, zero-deadline
// probes, OnReach error delivery, and the FailureDomain scope wiring.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <exception>
#include <stdexcept>
#include <stop_token>
#include <string>
#include <thread>
#include <type_traits>
#include <vector>

#include "monotonic/core/any_counter.hpp"
#include "monotonic/core/awaitable.hpp"
#include "monotonic/core/broadcast_counter.hpp"
#include "monotonic/core/counter.hpp"
#include "monotonic/core/counter_concept.hpp"
#include "monotonic/core/counter_decorator.hpp"
#include "monotonic/core/counter_error.hpp"
#include "monotonic/core/futex_counter.hpp"
#include "monotonic/core/hybrid_counter.hpp"
#include "monotonic/core/spin_counter.hpp"
#include "monotonic/core/wait_list.hpp"
#include "monotonic/core/wait_policy.hpp"
#include "monotonic/patterns/broadcast.hpp"
#include "monotonic/sim/fault_env.hpp"
#include "monotonic/threads/structured.hpp"

namespace monotonic {
namespace {

using namespace std::chrono_literals;

using monotonic::sim::FaultPlan;
using monotonic::sim::FaultScope;

// Every policy over the fault-injecting environment (fault_env.hpp).
// Disarmed, they must pass the whole failure suite unchanged; the
// FaultRounds suite below arms allocation failures and seed-derived
// spurious-wake/futex-interrupt plans against them.
using FaultListCounter =
    BasicCounter<BlockingWaitT<monotonic::sim::RealFaultEnv>>;
using FaultSingleCvCounter =
    BasicCounter<SingleCvWaitT<monotonic::sim::RealFaultEnv>>;
using FaultFutexCounter =
    BasicCounter<FutexWaitT<monotonic::sim::RealFaultEnv>>;
using FaultSpinCounter = BasicCounter<SpinWaitT<monotonic::sim::RealFaultEnv>>;
using FaultHybridCounter =
    BasicCounter<HybridWaitT<monotonic::sim::RealFaultEnv>>;

// The failure model is part of the uniform surface: every
// implementation, every decorator, and the type-erased handle.
static_assert(FailureAwareCounter<Counter>);
static_assert(FailureAwareCounter<SingleCvCounter>);
static_assert(FailureAwareCounter<FutexCounter>);
static_assert(FailureAwareCounter<SpinCounter>);
static_assert(FailureAwareCounter<HybridCounter>);
static_assert(FailureAwareCounter<Traced<Counter>>);
static_assert(FailureAwareCounter<Batching<HybridCounter>>);
static_assert(FailureAwareCounter<ShardedCounter>);
static_assert(FailureAwareCounter<ShardedHybridCounter>);
static_assert(FailureAwareCounter<Traced<ShardedHybridCounter>>);
static_assert(FailureAwareCounter<AnyHandle>);

// Sharded wait index wrappers (waitplane=heap:S — wait_index.hpp): the
// failure model must hold across shards too, not only over the default
// one shard.
inline WaitListOptions heap_plane_options(std::size_t shards,
                                          std::size_t preallocated = 0) {
  WaitListOptions o;
  o.wait_shards = shards;
  o.preallocated_nodes = preallocated;
  return o;
}

template <typename C>
struct HeapPlane : C {
  HeapPlane() : C(heap_plane_options(3)) {}
};

template <typename C>
struct PooledHeapPlane : C {
  PooledHeapPlane() : C(heap_plane_options(2, 8)) {}
};

template <typename C>
class FailureModel : public ::testing::Test {
 protected:
  C counter_;
};

using AllCounterTypes =
    ::testing::Types<Counter, SingleCvCounter, FutexCounter, SpinCounter,
                     HybridCounter, Traced<Counter>, Batching<HybridCounter>,
                     ShardedCounter,
                     ShardedHybridCounter, Traced<ShardedHybridCounter>,
                     FaultListCounter, FaultSingleCvCounter,
                     FaultFutexCounter, FaultSpinCounter, FaultHybridCounter,
                     HeapPlane<Counter>, HeapPlane<ShardedHybridCounter>,
                     PooledHeapPlane<HybridCounter>,
                     HeapPlane<FaultHybridCounter>>;

struct CounterTypeNames {
  template <typename T>
  static std::string GetName(int) {
    if constexpr (std::is_same_v<T, Counter>) return "list";
    if constexpr (std::is_same_v<T, SingleCvCounter>) return "single_cv";
    if constexpr (std::is_same_v<T, FutexCounter>) return "futex";
    if constexpr (std::is_same_v<T, SpinCounter>) return "spin";
    if constexpr (std::is_same_v<T, HybridCounter>) return "hybrid";
    if constexpr (std::is_same_v<T, Traced<Counter>>) return "list_traced";
    if constexpr (std::is_same_v<T, Batching<HybridCounter>>)
      return "hybrid_batching";
    if constexpr (std::is_same_v<T, ShardedCounter>) return "sharded_list";
    if constexpr (std::is_same_v<T, ShardedHybridCounter>)
      return "sharded_hybrid";
    if constexpr (std::is_same_v<T, Traced<ShardedHybridCounter>>)
      return "sharded_hybrid_traced";
    if constexpr (std::is_same_v<T, FaultListCounter>) return "fault_list";
    if constexpr (std::is_same_v<T, FaultSingleCvCounter>)
      return "fault_single_cv";
    if constexpr (std::is_same_v<T, FaultFutexCounter>) return "fault_futex";
    if constexpr (std::is_same_v<T, FaultSpinCounter>) return "fault_spin";
    if constexpr (std::is_same_v<T, FaultHybridCounter>) return "fault_hybrid";
    if constexpr (std::is_same_v<T, HeapPlane<Counter>>) return "heap_list";
    if constexpr (std::is_same_v<T, HeapPlane<ShardedHybridCounter>>)
      return "heap_sharded_hybrid";
    if constexpr (std::is_same_v<T, PooledHeapPlane<HybridCounter>>)
      return "heap_pooled_hybrid";
    if constexpr (std::is_same_v<T, HeapPlane<FaultHybridCounter>>)
      return "heap_fault_hybrid";
  }
};

TYPED_TEST_SUITE(FailureModel, AllCounterTypes, CounterTypeNames);

TYPED_TEST(FailureModel, PoisonFreezesValueAndSplitsChecks) {
  this->counter_.Increment(3);
  this->counter_.Poison(
      std::make_exception_ptr(std::runtime_error("producer died")));
  EXPECT_TRUE(this->counter_.poisoned());
  // At or below the frozen value: that work WAS done, Check succeeds.
  this->counter_.Check(0);
  this->counter_.Check(3);
  // Above it: the Increment is never coming — fail fast.
  EXPECT_THROW(this->counter_.Check(4), CounterPoisonedError);
  EXPECT_THROW((void)this->counter_.CheckFor(4, 10ms), CounterPoisonedError);
  EXPECT_THROW(
      (void)this->counter_.CheckUntil(
          4, std::chrono::steady_clock::now() + 10ms),
      CounterPoisonedError);
}

TYPED_TEST(FailureModel, PoisonCarriesTheProducersException) {
  this->counter_.Poison(
      std::make_exception_ptr(std::runtime_error("original failure")));
  try {
    this->counter_.Check(1);
    FAIL() << "Check on a poisoned counter must throw";
  } catch (const CounterPoisonedError& e) {
    ASSERT_TRUE(e.cause());
    EXPECT_THROW(std::rethrow_exception(e.cause()), std::runtime_error);
  }
}

TYPED_TEST(FailureModel, PoisonWhileParkedWakesEveryWaiter) {
  // Park waiters at several distinct levels, then poison: every one
  // must resume (no thread left parked) and unwind with the poison
  // error — across all five wake mechanisms.
  constexpr int kWaiters = 8;
  std::atomic<int> threw{0};
  {
    std::vector<std::jthread> threads;
    threads.reserve(kWaiters);
    for (int i = 0; i < kWaiters; ++i) {
      threads.emplace_back([this, i, &threw] {
        try {
          this->counter_.Check(static_cast<counter_value_t>(10 + i % 3));
        } catch (const CounterPoisonedError&) {
          threw.fetch_add(1, std::memory_order_relaxed);
        }
      });
    }
    std::this_thread::sleep_for(20ms);  // let (most) waiters park
    this->counter_.Poison(
        std::make_exception_ptr(std::runtime_error("mid-park failure")));
  }  // join: completes only if every waiter actually woke
  EXPECT_EQ(threw.load(), kWaiters);
}

TYPED_TEST(FailureModel, PoisonWhileParkedInTimedCheckThrows) {
  std::atomic<bool> threw{false};
  {
    std::jthread waiter([this, &threw] {
      try {
        (void)this->counter_.CheckFor(100, 10s);
      } catch (const CounterPoisonedError&) {
        threw.store(true, std::memory_order_relaxed);
      }
    });
    std::this_thread::sleep_for(20ms);
    this->counter_.Poison(
        std::make_exception_ptr(std::runtime_error("timed waiter's bane")));
  }
  EXPECT_TRUE(threw.load());
}

TYPED_TEST(FailureModel, PoisonRacingIncrementsLeavesConsistentState) {
  // Hammer Increment from several threads while poisoning mid-storm.
  // Whatever interleaving happens: no hang, no crash, and afterwards
  // the frozen value answers Checks consistently (at-or-below
  // succeeds; above throws).  Increment on the poisoned counter is a
  // silent drop, so the incrementers never observe an error.
  constexpr int kIncrementers = 4;
  constexpr int kPerThread = 5000;
  {
    std::vector<std::jthread> threads;
    threads.reserve(kIncrementers);
    for (int t = 0; t < kIncrementers; ++t) {
      threads.emplace_back([this] {
        for (int i = 0; i < kPerThread; ++i) this->counter_.Increment();
      });
    }
    std::this_thread::sleep_for(1ms);
    this->counter_.Poison(
        std::make_exception_ptr(std::runtime_error("mid-storm")));
  }
  ASSERT_TRUE(this->counter_.poisoned());
  const counter_value_t frozen = this->counter_.debug_value();
  EXPECT_LE(frozen,
            static_cast<counter_value_t>(kIncrementers) * kPerThread);
  this->counter_.Check(frozen);  // at the freeze: must not block or throw
  EXPECT_THROW(this->counter_.Check(frozen + 1), CounterPoisonedError);
  // Late increments are drops: the freeze holds.
  this->counter_.Increment(100);
  EXPECT_EQ(this->counter_.debug_value(), frozen);
}

TYPED_TEST(FailureModel, CancellationUnparksWaiter) {
  std::stop_source source;
  std::atomic<int> result{-1};
  {
    std::jthread waiter([this, &result, token = source.get_token()]() mutable {
      result.store(this->counter_.Check(100, token) ? 1 : 0,
                   std::memory_order_relaxed);
    });
    std::this_thread::sleep_for(20ms);  // let the waiter park
    source.request_stop();
  }  // join: completes only if the cancellation actually woke the waiter
  EXPECT_EQ(result.load(), 0);
}

TYPED_TEST(FailureModel, PreCancelledCheckReturnsImmediately) {
  std::stop_source source;
  source.request_stop();
  EXPECT_FALSE(this->counter_.Check(100, source.get_token()));
}

TYPED_TEST(FailureModel, CancellableCheckStillSucceedsNormally) {
  std::stop_source source;
  this->counter_.Increment(5);
  EXPECT_TRUE(this->counter_.Check(5, source.get_token()));
  // And a parked cancellable waiter released by Increment reports
  // success, not cancellation.
  std::atomic<int> result{-1};
  {
    std::jthread waiter([this, &result, token = source.get_token()]() mutable {
      result.store(this->counter_.Check(6, token) ? 1 : 0,
                   std::memory_order_relaxed);
    });
    std::this_thread::sleep_for(20ms);
    this->counter_.Increment();
  }
  EXPECT_EQ(result.load(), 1);
}

TYPED_TEST(FailureModel, CancellableCheckThrowsOnPoison) {
  std::stop_source source;  // never triggered
  std::atomic<bool> threw{false};
  {
    std::jthread waiter([this, &threw, token = source.get_token()]() mutable {
      try {
        (void)this->counter_.Check(100, token);
      } catch (const CounterPoisonedError&) {
        threw.store(true, std::memory_order_relaxed);
      }
    });
    std::this_thread::sleep_for(20ms);
    this->counter_.Poison(
        std::make_exception_ptr(std::runtime_error("poisoned, not cancelled")));
  }
  EXPECT_TRUE(threw.load());
}

TYPED_TEST(FailureModel, ZeroDeadlineProbeAcquiresNoWaitNode) {
  // Satellite contract: an unreached CheckFor with a zero (or expired)
  // deadline is a pure probe — it must return false without touching
  // the wait list, on every policy.
  this->counter_.Increment(1);
  const auto before = this->counter_.stats().nodes_allocated;
  EXPECT_FALSE(this->counter_.CheckFor(10, 0ms));
  EXPECT_FALSE(this->counter_.CheckFor(10, -5ms));
  EXPECT_FALSE(this->counter_.CheckUntil(
      10, std::chrono::steady_clock::now() - 1ms));
  EXPECT_EQ(this->counter_.stats().nodes_allocated, before);
  // Reached levels still succeed through the same entry.
  EXPECT_TRUE(this->counter_.CheckFor(1, 0ms));
}

TYPED_TEST(FailureModel, OnReachErrorCallbackDeliversPoisonCause) {
  std::atomic<bool> fn_ran{false};
  std::atomic<bool> error_ran{false};
  this->counter_.OnReach(
      10, [&] { fn_ran.store(true); },
      [&](std::exception_ptr cause) {
        EXPECT_THROW(std::rethrow_exception(cause), std::runtime_error);
        error_ran.store(true);
      });
  this->counter_.Poison(
      std::make_exception_ptr(std::runtime_error("callback's bane")));
  EXPECT_FALSE(fn_ran.load());
  EXPECT_TRUE(error_ran.load());
}

TYPED_TEST(FailureModel, OnReachOnPoisonedCounterBelowFrozenRuns) {
  this->counter_.Increment(5);
  this->counter_.Poison(
      std::make_exception_ptr(std::runtime_error("late registration")));
  bool ran = false;
  this->counter_.OnReach(3, [&] { ran = true; });  // 3 <= frozen 5
  EXPECT_TRUE(ran);
}

TYPED_TEST(FailureModel, OnReachOnPoisonedCounterAboveFrozen) {
  this->counter_.Poison(
      std::make_exception_ptr(std::runtime_error("never reaching 10")));
  // Without an error callback the registration throws, mirroring Check.
  EXPECT_THROW(this->counter_.OnReach(10, [] {}), CounterPoisonedError);
  // With one, the failure is delivered through it instead.
  bool delivered = false;
  this->counter_.OnReach(
      10, [] { FAIL() << "fn must not run"; },
      [&](std::exception_ptr) { delivered = true; });
  EXPECT_TRUE(delivered);
}

// --- Predicate waits and the awaitable surface under poison ---------------
//
// Check(pred) reduces to an exact threshold before parking, so the
// poison semantics must match Check(level): a predicate already
// satisfied by the frozen value succeeds, one that needs more throws.
// Awaiting coroutines are logical waiters on the same OnReach index —
// poison must resume them with the error, and a stop request must
// cancel a suspended frame without firing it.

// state: 0 = pending, 1 = reached, 2 = poisoned, 3 = cancelled.
template <typename C>
DetachedTask await_outcome(C& counter, counter_value_t level,
                           std::atomic<int>& state) {
  try {
    co_await reach(counter, level);
    state.store(1);
  } catch (const CounterPoisonedError&) {
    state.store(2);
  }
}

template <typename C>
DetachedTask await_cancellable(C& counter, counter_value_t level,
                               std::stop_token stop,
                               std::atomic<int>& state) {
  try {
    const bool reached = co_await reach(counter, level, stop);
    state.store(reached ? 1 : 3);
  } catch (const CounterPoisonedError&) {
    state.store(2);
  }
}

// Poll until the coroutine publishes an outcome (bounded; the suites
// run under sanitizers where wakeups can be slow).
inline int await_state(std::atomic<int>& state) {
  for (int spin = 0; spin < 2000 && state.load() == 0; ++spin) {
    std::this_thread::sleep_for(1ms);
  }
  return state.load();
}

TYPED_TEST(FailureModel, PredicateCheckThrowsOnPoisonedBelowThreshold) {
  this->counter_.Increment(3);
  this->counter_.Poison(
      std::make_exception_ptr(std::runtime_error("predicate bane")));
  // Frozen value 3 already satisfies v >= 3: succeeds like Check(3).
  this->counter_.Check([](counter_value_t v) { return v >= 3; });
  // v >= 5 can never be satisfied once frozen at 3.
  EXPECT_THROW(
      this->counter_.Check([](counter_value_t v) { return v >= 5; }),
      CounterPoisonedError);
}

TYPED_TEST(FailureModel, PredicateCheckWhileParkedThrowsOnPoison) {
  std::atomic<bool> threw{false};
  std::jthread waiter([&] {
    try {
      this->counter_.Check([](counter_value_t v) { return v >= 10; });
    } catch (const CounterPoisonedError&) {
      threw.store(true);
    }
  });
  std::this_thread::sleep_for(20ms);
  this->counter_.Poison(
      std::make_exception_ptr(std::runtime_error("parked predicate")));
  waiter.join();
  EXPECT_TRUE(threw.load());
}

TYPED_TEST(FailureModel, AwaitingCoroutineResumesWithPoisonError) {
  std::atomic<int> state{0};
  await_outcome(this->counter_, 10, state);
  this->counter_.Increment(4);  // below the awaited level: stays suspended
  this->counter_.Poison(
      std::make_exception_ptr(std::runtime_error("awaited bane")));
  EXPECT_EQ(await_state(state), 2);
}

TYPED_TEST(FailureModel, StopTokenCancelsSuspendedCoroutine) {
  std::atomic<int> state{0};
  std::stop_source source;
  await_cancellable(this->counter_, 100, source.get_token(), state);
  EXPECT_EQ(state.load(), 0);  // level 100 never reached: suspended
  source.request_stop();
  EXPECT_EQ(await_state(state), 3);
  // The counter still works after the cancelled wait.
  this->counter_.Increment(1);
  this->counter_.Check(1);
}

TYPED_TEST(FailureModel, ReasonPoisonHasNullCause) {
  this->counter_.Poison(std::string_view("orderly shutdown"));
  try {
    this->counter_.Check(1);
    FAIL() << "Check on a poisoned counter must throw";
  } catch (const CounterPoisonedError& e) {
    EXPECT_TRUE(std::string(e.what()).find("orderly shutdown") !=
                std::string::npos)
        << e.what();
  }
}

TYPED_TEST(FailureModel, FirstPoisonWins) {
  this->counter_.Increment(2);
  this->counter_.Poison(std::string_view("first"));
  this->counter_.Increment(7);  // dropped — must not move the freeze
  this->counter_.Poison(std::string_view("second"));
  try {
    this->counter_.Check(3);
    FAIL() << "Check on a poisoned counter must throw";
  } catch (const CounterPoisonedError& e) {
    EXPECT_TRUE(std::string(e.what()).find("first") != std::string::npos)
        << e.what();
  }
  EXPECT_EQ(this->counter_.debug_value(), 2u);
}

TYPED_TEST(FailureModel, ResetClearsPoisonForPhaseReuse) {
  this->counter_.Increment(2);
  this->counter_.Poison(std::string_view("phase one failed"));
  EXPECT_TRUE(this->counter_.poisoned());
  this->counter_.Reset();
  EXPECT_FALSE(this->counter_.poisoned());
  EXPECT_EQ(this->counter_.debug_value(), 0u);
  this->counter_.Increment(4);
  this->counter_.Check(4);  // fully back in service
}

TYPED_TEST(FailureModel, PoisonStatsAreCounted) {
  this->counter_.Increment(1);
  this->counter_.Poison(std::string_view("stats check"));
  this->counter_.Increment(1);  // dropped
  const auto s = this->counter_.stats();
  EXPECT_EQ(s.poisons, 1u);
  EXPECT_GE(s.dropped_increments, 1u);
}

// ---------------------------------------------------------------------------
// Engine-level scenarios that need counter Options (watchdog) or the
// type-erased surface — not templated.

TEST(StallWatchdog, ReportsParkedWaiterAndItsWaitList) {
  WaitListOptions options;
  options.stall_report_after = 20ms;
  std::atomic<int> reports{0};
  CounterStallReport last{};
  std::mutex report_m;
  options.on_stall = [&](const CounterStallReport& r) {
    std::scoped_lock lock(report_m);
    last = r;
    reports.fetch_add(1, std::memory_order_relaxed);
  };
  Counter counter(options);
  counter.Increment(2);
  {
    std::jthread waiter([&] { counter.Check(10); });
    while (reports.load(std::memory_order_relaxed) == 0) {
      std::this_thread::sleep_for(5ms);
    }
    counter.Increment(8);  // release the waiter; the stall was transient
  }
  std::scoped_lock lock(report_m);
  EXPECT_GE(reports.load(), 1);
  EXPECT_EQ(last.level, 10u);
  EXPECT_EQ(last.value, 2u);
  EXPECT_GE(last.waited.count(), 20);
  ASSERT_EQ(last.wait_levels.size(), 1u);
  EXPECT_EQ(last.wait_levels[0].level, 10u);
  EXPECT_EQ(last.wait_levels[0].waiters, 1u);
  // The report says how many shards the waiter's wait index has.
  EXPECT_EQ(last.wait_shards, 1u);
  EXPECT_GE(counter.stats().stall_reports, 1u);
}

TEST(StallWatchdog, ReportNamesTheShardCount) {
  WaitListOptions options;
  options.stall_report_after = 20ms;
  options.wait_shards = 4;
  std::atomic<int> reports{0};
  CounterStallReport last{};
  std::mutex report_m;
  options.on_stall = [&](const CounterStallReport& r) {
    std::scoped_lock lock(report_m);
    last = r;
    reports.fetch_add(1, std::memory_order_relaxed);
  };
  Counter counter(options);
  {
    std::jthread waiter([&] { counter.Check(10); });
    while (reports.load(std::memory_order_relaxed) == 0) {
      std::this_thread::sleep_for(5ms);
    }
    counter.Increment(10);
  }
  std::scoped_lock lock(report_m);
  EXPECT_EQ(last.wait_shards, 4u);
}

TEST(StallWatchdog, QuietWhenIncrementsArriveInTime) {
  WaitListOptions options;
  options.stall_report_after = 250ms;
  std::atomic<int> reports{0};
  options.on_stall = [&](const CounterStallReport&) {
    reports.fetch_add(1, std::memory_order_relaxed);
  };
  Counter counter(options);
  {
    std::jthread waiter([&] { counter.Check(1); });
    std::this_thread::sleep_for(10ms);
    counter.Increment();
  }
  EXPECT_EQ(reports.load(), 0);
}

TEST(AnyCounterFailure, ErasedSurfaceCarriesTheFailureModel) {
  for (const CounterKind kind : all_counter_kinds()) {
    auto counter = make_counter(kind);
    counter->Increment(2);
    std::stop_source source;
    source.request_stop();
    EXPECT_FALSE(counter->Check(5, source.get_token())) << to_string(kind);
    counter->Poison(
        std::make_exception_ptr(std::runtime_error("erased failure")));
    EXPECT_TRUE(counter->poisoned()) << to_string(kind);
    EXPECT_THROW(counter->Check(3), CounterPoisonedError) << to_string(kind);
    counter->Check(2);  // frozen value still answers
  }
}

TEST(AnyCounterFailure, DecoratedSpecStacksForwardPoison) {
  for (const char* spec :
       {"hybrid+traced", "list+batching,batch=8", "futex+traced",
        "spin+batching,batch=4+traced"}) {
    auto counter = make_counter(std::string_view(spec));
    counter->Increment(1);
    counter->Poison(
        std::make_exception_ptr(std::runtime_error("through the stack")));
    EXPECT_TRUE(counter->poisoned()) << spec;
    EXPECT_THROW(counter->Check(2), CounterPoisonedError) << spec;
    counter->Check(1);
  }
}

TEST(FailureDomainTest, SiblingFailurePoisonsWatchedCounters) {
  // The acceptance scenario: statement 0 throws before producing;
  // statement 1 is parked on a counter only statement 0 would have
  // incremented.  Without the domain the join would never complete.
  Counter produced;
  FailureDomain domain;
  domain.watch(produced);
  try {
    multithreaded(
        {
            [] { throw std::runtime_error("producer exploded"); },
            [&] { produced.Check(1); },  // unwinds via poison
        },
        domain);
    FAIL() << "multithreaded must rethrow";
  } catch (const MultiError& e) {
    EXPECT_EQ(e.errors().size(), 2u);
    EXPECT_TRUE(std::string(e.what()).find("producer exploded") !=
                std::string::npos)
        << e.what();
  }
  EXPECT_TRUE(domain.failed());
  EXPECT_TRUE(produced.poisoned());
}

TEST(FailureDomainTest, CleanBlockLeavesCountersHealthy) {
  Counter produced;
  FailureDomain domain;
  domain.watch(produced);
  multithreaded(
      {
          [&] { produced.Increment(); },
          [&] { produced.Check(1); },
      },
      domain);
  EXPECT_FALSE(domain.failed());
  EXPECT_FALSE(produced.poisoned());
}

TEST(FailureDomainTest, SequentialPolicyAlsoPoisons) {
  Counter produced;
  FailureDomain domain;
  domain.watch(produced);
  EXPECT_THROW(multithreaded(
                   {
                       [] { throw std::runtime_error("sequential failure"); },
                       [&] { produced.Check(1); },  // never runs
                   },
                   domain, Execution::kSequential),
               std::runtime_error);
  EXPECT_TRUE(produced.poisoned());
}

TEST(BroadcastFailure, PoisonCauseReachesReaders) {
  BroadcastChannel<int, HybridCounter> channel(8);
  auto writer = channel.writer(1);
  writer.publish(7);
  writer.publish(8);
  writer.poison(std::make_exception_ptr(std::runtime_error("disk on fire")));
  auto reader = channel.reader(4);  // reader block larger than published
  EXPECT_EQ(reader.get(0), 7);     // published items stay readable
  EXPECT_EQ(reader.get(1), 8);
  try {
    (void)reader.get(2);
    FAIL() << "reading past the failure must throw";
  } catch (const BrokenChannelError& e) {
    ASSERT_TRUE(e.cause());
    try {
      std::rethrow_exception(e.cause());
    } catch (const std::runtime_error& inner) {
      EXPECT_STREQ(inner.what(), "disk on fire");
    }
  }
  EXPECT_TRUE(channel.poisoned());
}

TEST(BroadcastFailure, BrokenChannelErrorIsACounterPoisonedError) {
  // Callers may catch at either vocabulary level.
  static_assert(std::is_base_of_v<CounterPoisonedError, BrokenChannelError>);
  BroadcastChannel<int> channel(4);
  auto writer = channel.writer();
  writer.poison();
  auto reader = channel.reader();
  EXPECT_THROW((void)reader.get(0), CounterPoisonedError);
}

TEST(BroadcastFailure, ParkedReaderIsWokenByPoison) {
  BroadcastChannel<int, SpinCounter> channel(4);
  std::atomic<bool> threw{false};
  {
    std::jthread consumer([&] {
      auto reader = channel.reader(1);
      try {
        (void)reader.get(0);
      } catch (const BrokenChannelError&) {
        threw.store(true, std::memory_order_relaxed);
      }
    });
    std::this_thread::sleep_for(20ms);
    auto writer = channel.writer();
    writer.poison(std::make_exception_ptr(std::runtime_error("late poison")));
  }
  EXPECT_TRUE(threw.load());
}

// ---------------------------------------------------------------------------
// Armed fault rounds: every policy over FaultEnvT<RealEngineEnv> with
// the faults switched ON.  (The deterministic-schedule versions live
// in sim_scenarios.hpp; these run the same machinery over real
// threads, real clock.)
// ---------------------------------------------------------------------------

template <typename C>
class FaultRounds : public ::testing::Test {};

using FaultEnvCounterTypes =
    ::testing::Types<FaultListCounter, FaultSingleCvCounter,
                     FaultFutexCounter, FaultSpinCounter, FaultHybridCounter,
                     HeapPlane<FaultListCounter>,
                     HeapPlane<FaultHybridCounter>>;

struct FaultTypeNames {
  template <typename T>
  static std::string GetName(int) {
    if constexpr (std::is_same_v<T, FaultListCounter>) return "list";
    if constexpr (std::is_same_v<T, FaultSingleCvCounter>) return "single_cv";
    if constexpr (std::is_same_v<T, FaultFutexCounter>) return "futex";
    if constexpr (std::is_same_v<T, FaultSpinCounter>) return "spin";
    if constexpr (std::is_same_v<T, FaultHybridCounter>) return "hybrid";
    if constexpr (std::is_same_v<T, HeapPlane<FaultListCounter>>)
      return "heap_list";
    if constexpr (std::is_same_v<T, HeapPlane<FaultHybridCounter>>)
      return "heap_hybrid";
  }
};

TYPED_TEST_SUITE(FaultRounds, FaultEnvCounterTypes, FaultTypeNames);

TYPED_TEST(FaultRounds, AllocationFailureLeavesTheCounterUsable) {
  TypeParam c;
  {
    FaultPlan plan;
    plan.fail_alloc_at = 1;  // the park's wait-node allocation
    FaultScope scope(plan);
    EXPECT_THROW(c.Check(1), CounterResourceError);
  }
  // Strong guarantee: the very same counter parks and releases.
  std::thread releaser([&] {
    while (c.stats().live_nodes == 0) std::this_thread::yield();
    c.Increment(1);
  });
  c.Check(1);
  releaser.join();
  EXPECT_EQ(c.debug_value(), 1u);
  EXPECT_EQ(c.stats().live_nodes, 0u);
}

TYPED_TEST(FaultRounds, SeededFaultRoundKeepsTimedAccountingExact) {
  TypeParam c;
  {
    // Seed-derived spurious-wake + futex-interrupt cadences (policies
    // that use neither primitive simply never consult them).  The
    // timeout must be reported exactly once, by the engine.
    FaultScope scope(FaultPlan::from_seed(0x5eed0001ull));
    EXPECT_FALSE(c.CheckFor(3, 40ms));
  }
  EXPECT_EQ(c.stats().timed_out_checks, 1u);
  EXPECT_EQ(c.stats().cancelled_checks, 0u);
  {
    // And a released round under the same fault pressure must succeed
    // without growing the timeout count.
    FaultScope scope(FaultPlan::from_seed(0x5eed0002ull));
    std::thread releaser([&] {
      std::this_thread::sleep_for(10ms);
      c.Increment(3);
    });
    EXPECT_TRUE(c.CheckFor(3, std::chrono::seconds(60)));
    releaser.join();
  }
  EXPECT_EQ(c.stats().timed_out_checks, 1u);
  EXPECT_EQ(c.stats().live_nodes, 0u);
}

// The level index has two allocation sites besides the node: the
// level-to-node table and the heap array growth (wait_index.hpp's link
// hook).  Fail each in turn — the strong guarantee must hold at every
// site, and the same counter must then park and release.
TEST(HeapPlaneFaultRounds, EveryIndexAllocationSiteUnwindsCleanly) {
  WaitListOptions options;
  options.wait_shards = 2;
  options.pool_nodes = false;  // every round re-runs the full sequence
  BasicCounter<HybridWaitT<monotonic::sim::RealFaultEnv>> c(options);
  // Fresh-level link: alloc #1 = the node, #2 = the table,
  // #3 = the heap slot.
  for (std::size_t site = 1; site <= 3; ++site) {
    FaultPlan plan;
    plan.fail_alloc_at = site;
    FaultScope scope(plan);
    EXPECT_THROW(c.Check(1), CounterResourceError) << "site " << site;
    EXPECT_EQ(c.stats().live_nodes, 0u) << "site " << site;
  }
  std::thread releaser([&] {
    while (c.stats().live_nodes == 0) std::this_thread::yield();
    c.Increment(1);
  });
  c.Check(1);
  releaser.join();
  EXPECT_EQ(c.debug_value(), 1u);
  EXPECT_EQ(c.stats().live_nodes, 0u);
}

}  // namespace
}  // namespace monotonic

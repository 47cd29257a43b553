// predicate_async_test.cpp — the predicate wait surface and the async
// completion plane.
//
// Covers the pieces PR 8 layered onto the engine: Check(pred) with
// AutoSynch-style threshold reduction, check_any / check_sum_at_least
// riding the OnReach index instead of polling, the sum_of expression
// sugar, the CompletionExecutor seam (inline / manual / thread pool),
// and the C++20 awaitable adapter (`co_await reach(...)`,
// `when_all`).  Poison and cancellation interactions live in
// counter_failure_test.cpp; this file is the happy-path and
// plumbing-correctness suite.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstddef>
#include <exception>
#include <memory>
#include <stdexcept>
#include <stop_token>
#include <thread>
#include <utility>
#include <vector>

#include "monotonic/core/any_counter.hpp"
#include "monotonic/core/awaitable.hpp"
#include "monotonic/core/completion.hpp"
#include "monotonic/core/counter.hpp"
#include "monotonic/core/counter_error.hpp"
#include "monotonic/core/hybrid_counter.hpp"
#include "monotonic/core/multi.hpp"
#include "monotonic/core/wait_list.hpp"

namespace monotonic {
namespace {

using namespace std::chrono_literals;

// ---------------------------------------------------------------- executors

TEST(CompletionExecutorTest, InlineRunsSynchronously) {
  InlineExecutor exec;
  bool ran = false;
  exec.post([&] { ran = true; });
  EXPECT_TRUE(ran);
}

TEST(CompletionExecutorTest, ManualQueuesUntilDrained) {
  ManualExecutor exec;
  int ran = 0;
  exec.post([&] { ++ran; });
  exec.post([&] { ++ran; });
  EXPECT_EQ(ran, 0);
  EXPECT_EQ(exec.pending(), 2u);
  EXPECT_TRUE(exec.drain_one());
  EXPECT_EQ(ran, 1);
  EXPECT_EQ(exec.drain(), 1u);
  EXPECT_EQ(ran, 2);
  EXPECT_FALSE(exec.drain_one());
}

TEST(CompletionExecutorTest, ManualDrainRunsWorkPostedByWork) {
  ManualExecutor exec;
  int ran = 0;
  exec.post([&] {
    ++ran;
    exec.post([&] { ++ran; });
  });
  EXPECT_EQ(exec.drain(), 2u);
  EXPECT_EQ(ran, 2);
}

TEST(CompletionExecutorTest, ThreadPoolDestructorDrainsQueue) {
  std::atomic<int> ran{0};
  {
    ThreadPoolExecutor exec(2);
    EXPECT_EQ(exec.worker_count(), 2u);
    for (int i = 0; i < 64; ++i) {
      exec.post([&] { ran.fetch_add(1); });
    }
  }  // dtor must finish everything already queued before joining
  EXPECT_EQ(ran.load(), 64);
}

TEST(CompletionExecutorTest, ThreadPoolZeroThreadsClampsToOne) {
  ThreadPoolExecutor exec(0);
  EXPECT_EQ(exec.worker_count(), 1u);
}

// ---------------------------------------------------------- Check(predicate)

TEST(PredicateCheckTest, SatisfiedPredicateReturnsImmediately) {
  Counter c;
  c.Increment(10);
  c.Check([](counter_value_t v) { return v >= 7; });
  c.Check([](counter_value_t v) { return v * 2 >= 20; });
  EXPECT_EQ(c.stats().predicate_checks, 2u);
}

TEST(PredicateCheckTest, PredicateTrueAtZeroNeverParks) {
  Counter c;  // value 0, no incrementer anywhere
  c.Check([](counter_value_t) { return true; });
}

TEST(PredicateCheckTest, NeverTruePredicateIsRejected) {
  Counter c;
  // False at the maximum value ⇒ no increment can ever signal it; the
  // reduction refuses rather than parking a thread forever.
  EXPECT_THROW(c.Check([](counter_value_t) { return false; }),
               std::invalid_argument);
}

TEST(PredicateCheckTest, ParkedPredicateWakesAtExactThreshold) {
  HybridCounter c;
  std::thread incrementer([&] {
    std::this_thread::sleep_for(20ms);
    c.Increment(2);
    std::this_thread::sleep_for(10ms);
    c.Increment(1);
  });
  c.Check([](counter_value_t v) { return v >= 3; });
  EXPECT_GE(c.debug_value(), 3u);
  incrementer.join();
}

TEST(PredicateCheckTest, StopTokenCancelsPredicateWait) {
  Counter c;
  std::stop_source source;
  std::atomic<bool> returned{false};
  std::thread waiter([&] {
    returned.store(
        c.Check([](counter_value_t v) { return v >= 1000; },
                source.get_token()));
  });
  std::this_thread::sleep_for(20ms);
  source.request_stop();
  waiter.join();
  EXPECT_FALSE(returned.load());
}

// ------------------------------------------------------------- check_any

TEST(CheckAnyTest, ReturnsIndexOfFirstConditionToFire) {
  Counter a, b;
  std::thread incrementer([&] {
    std::this_thread::sleep_for(20ms);
    b.Increment(2);
  });
  const std::size_t winner =
      check_any({CounterCondition<Counter>{&a, 5},
                 CounterCondition<Counter>{&b, 2}});
  EXPECT_EQ(winner, 1u);
  incrementer.join();
}

TEST(CheckAnyTest, AlreadySatisfiedLowestIndexWins) {
  Counter a, b;
  a.Increment(3);
  b.Increment(3);
  const std::size_t winner =
      check_any({CounterCondition<Counter>{&a, 1},
                 CounterCondition<Counter>{&b, 1}});
  EXPECT_EQ(winner, 0u);
}

TEST(CheckAnyTest, PoisonedConditionFailsTheWait) {
  Counter a, b;
  a.Poison(std::make_exception_ptr(std::runtime_error("any bane")));
  EXPECT_THROW(check_any({CounterCondition<Counter>{&a, 5},
                          CounterCondition<Counter>{&b, 5}}),
               CounterPoisonedError);
}

TEST(CheckAnyTest, EmptyConditionListIsRejected) {
  EXPECT_THROW(check_any(std::initializer_list<CounterCondition<Counter>>{}),
               std::invalid_argument);
}

// ------------------------------------------------------ check_sum_at_least

TEST(CheckSumTest, AlreadySatisfiedReturnsWithoutWaiting) {
  Counter a, b;
  a.Increment(6);
  b.Increment(4);
  check_sum_at_least({&a, &b}, 10);
}

TEST(CheckSumTest, WaitsUntilCombinedSumReachesThreshold) {
  HybridCounter a, b;
  std::thread ta([&] {
    for (int i = 0; i < 5; ++i) {
      std::this_thread::sleep_for(5ms);
      a.Increment(1);
    }
  });
  std::thread tb([&] {
    for (int i = 0; i < 5; ++i) {
      std::this_thread::sleep_for(5ms);
      b.Increment(1);
    }
  });
  check_sum_at_least({&a, &b}, 8);
  EXPECT_GE(a.debug_value() + b.debug_value(), 8u);
  ta.join();
  tb.join();
}

TEST(CheckSumTest, SumExpressionSugar) {
  Counter a, b, c;
  std::thread incrementer([&] {
    std::this_thread::sleep_for(20ms);
    a.Increment(2);
    b.Increment(1);
    c.Increment(2);
  });
  (sum_of(a, b, c) >= 5).wait();
  EXPECT_GE(a.debug_value() + b.debug_value() + c.debug_value(), 5u);
  incrementer.join();
}

// ------------------------------------------------- the completion executor

WaitListOptions with_executor(std::shared_ptr<CompletionExecutor> exec) {
  WaitListOptions options;
  options.completion_executor = std::move(exec);
  return options;
}

TEST(ExecutorPlaneTest, ManualExecutorDefersReachedCallbacks) {
  auto exec = std::make_shared<ManualExecutor>();
  Counter c(with_executor(exec));
  std::atomic<int> ran{0};
  c.OnReach(2, [&] { ran.fetch_add(1); });
  c.Increment(2);
  EXPECT_EQ(ran.load(), 0);  // detached under the lock, not yet delivered
  EXPECT_EQ(exec->drain(), 1u);
  EXPECT_EQ(ran.load(), 1);
  EXPECT_EQ(c.stats().async_completions, 1u);
}

TEST(ExecutorPlaneTest, ImmediateFireAlsoRoutesThroughExecutor) {
  auto exec = std::make_shared<ManualExecutor>();
  Counter c(with_executor(exec));
  c.Increment(5);
  bool ran = false;
  // Registration on an already-reached level: same delivery context as
  // a late fire, so callbacks observe ONE execution discipline.
  c.OnReach(3, [&] { ran = true; });
  EXPECT_FALSE(ran);
  EXPECT_EQ(exec->drain(), 1u);
  EXPECT_TRUE(ran);
}

TEST(ExecutorPlaneTest, PoisonDeliversErrorsThroughExecutor) {
  auto exec = std::make_shared<ManualExecutor>();
  Counter c(with_executor(exec));
  std::atomic<bool> delivered{false};
  c.OnReach(
      10, [] { FAIL() << "fn must not run"; },
      [&](std::exception_ptr) { delivered.store(true); });
  c.Poison(std::make_exception_ptr(std::runtime_error("queued bane")));
  EXPECT_FALSE(delivered.load());
  EXPECT_EQ(exec->drain(), 1u);
  EXPECT_TRUE(delivered.load());
}

TEST(ExecutorPlaneTest, PoolExecutorUnblocksTheIncrementer) {
  auto exec = std::make_shared<ThreadPoolExecutor>(1);
  HybridCounter c(with_executor(exec));
  std::atomic<bool> callback_done{false};
  c.OnReach(1, [&] {
    std::this_thread::sleep_for(50ms);
    callback_done.store(true);
  });
  const auto start = std::chrono::steady_clock::now();
  c.Increment(1);
  const auto elapsed = std::chrono::steady_clock::now() - start;
  // The slow callback runs on the pool worker; Increment must return
  // well before it finishes (generous bound for sanitizer builds).
  EXPECT_LT(elapsed, 40ms) << "Increment waited for the slow callback";
  for (int spin = 0; spin < 2000 && !callback_done.load(); ++spin) {
    std::this_thread::sleep_for(1ms);
  }
  EXPECT_TRUE(callback_done.load());
}

// ------------------------------------------------------------- awaitables

// state: 0 = pending, 1 = reached.
template <typename C>
DetachedTask await_level(C& counter, counter_value_t level,
                         std::atomic<int>& state) {
  co_await reach(counter, level);
  state.store(1);
}

template <typename A, typename B>
DetachedTask await_both(A& a, counter_value_t la, B& b, counter_value_t lb,
                        std::atomic<int>& state) {
  co_await when_all(reach(a, la), reach(b, lb));
  state.store(1);
}

int poll_state(std::atomic<int>& state) {
  for (int spin = 0; spin < 2000 && state.load() == 0; ++spin) {
    std::this_thread::sleep_for(1ms);
  }
  return state.load();
}

TEST(AwaitableTest, AlreadyReachedResumesWithoutSuspending) {
  Counter c;
  c.Increment(3);
  std::atomic<int> state{0};
  await_level(c, 3, state);
  // Inline executor + already-reached level: the immediate OnReach fire
  // completes the handshake before arm(), so the frame never suspends.
  EXPECT_EQ(state.load(), 1);
}

TEST(AwaitableTest, ResumesAfterIncrement) {
  Counter c;
  std::atomic<int> state{0};
  await_level(c, 2, state);
  EXPECT_EQ(state.load(), 0);
  c.Increment(1);
  EXPECT_EQ(state.load(), 0);
  c.Increment(1);
  EXPECT_EQ(poll_state(state), 1);
}

TEST(AwaitableTest, ManyCheapLogicalWaitersOneThread) {
  HybridCounter c;
  constexpr int kWaiters = 1000;
  std::atomic<int> done{0};
  std::vector<std::atomic<int>> states(kWaiters);
  for (int i = 0; i < kWaiters; ++i) {
    await_level(c, static_cast<counter_value_t>(i + 1), states[i]);
  }
  for (int i = 0; i < kWaiters; ++i) c.Increment(1);
  for (int i = 0; i < kWaiters; ++i) done += poll_state(states[i]);
  EXPECT_EQ(done.load(), kWaiters);
}

TEST(AwaitableTest, WhenAllWaitsForEveryCondition) {
  Counter a;
  HybridCounter b;  // heterogeneous counter types compose
  std::atomic<int> state{0};
  await_both(a, 2, b, 1, state);
  a.Increment(2);
  EXPECT_EQ(state.load(), 0);  // b not yet at 1
  b.Increment(1);
  EXPECT_EQ(poll_state(state), 1);
}

TEST(AwaitableTest, WhenAllAlreadySatisfiedResumesInline) {
  Counter a, b;
  a.Increment(5);
  b.Increment(5);
  std::atomic<int> state{0};
  await_both(a, 1, b, 1, state);
  EXPECT_EQ(state.load(), 1);
}

TEST(AwaitableTest, ResumptionRunsOnTheExecutor) {
  auto exec = std::make_shared<ManualExecutor>();
  Counter c(with_executor(exec));
  std::atomic<int> state{0};
  await_level(c, 1, state);
  c.Increment(1);
  EXPECT_EQ(state.load(), 0);  // resumption is queued, not inline
  exec->drain();
  EXPECT_EQ(state.load(), 1);
}

// ------------------------------------------------------------ type erasure

TEST(AnyHandleTest, PredicateCheckThroughTypeErasure) {
  AnyHandle h(make_counter("hybrid"));
  h.Increment(6);
  h.Check([](counter_value_t v) { return v >= 5; });
  EXPECT_GE(h.value_lower_bound(), 6u);
}

TEST(AnyHandleTest, SpecPoolExecutorDelivers) {
  AnyHandle h(make_counter("list,executor=pool:2"));
  std::atomic<bool> ran{false};
  h.OnReach(1, [&] { ran.store(true); });
  h.Increment(1);
  for (int spin = 0; spin < 2000 && !ran.load(); ++spin) {
    std::this_thread::sleep_for(1ms);
  }
  EXPECT_TRUE(ran.load());
}

TEST(AnyHandleTest, AwaitableOverTypeErasedCounter) {
  AnyHandle h(make_counter("spin"));
  std::atomic<int> state{0};
  await_level(h, 2, state);
  h.Increment(2);
  EXPECT_EQ(poll_state(state), 1);
}

// ----------------------------------- detached-coroutine error routing

/// Restores the previous DetachedTask error handler on scope exit so a
/// failing test can't poison later ones.
class ScopedDetachedHandler {
 public:
  explicit ScopedDetachedHandler(DetachedTaskErrorHandler h)
      : prev_(set_detached_task_error_handler(std::move(h))) {}
  ~ScopedDetachedHandler() { set_detached_task_error_handler(std::move(prev_)); }

 private:
  DetachedTaskErrorHandler prev_;
};

template <typename C>
DetachedTask throw_after_reach(C& counter, counter_value_t level) {
  co_await reach(counter, level);
  throw std::runtime_error("boom after resume");
}

TEST(DetachedTaskErrorTest, EscapedExceptionRoutesToHandlerNotTerminate) {
  std::atomic<int> calls{0};
  std::string message;
  ScopedDetachedHandler guard([&](std::exception_ptr ep) {
    try {
      std::rethrow_exception(ep);
    } catch (const std::runtime_error& e) {
      message = e.what();
      calls.fetch_add(1);
    }
  });

  Counter c;
  throw_after_reach(c, 2);
  // Resuming the coroutine makes its body throw; without the handler
  // seam this Increment would std::terminate the process.
  c.Increment(2);
  for (int spin = 0; spin < 2000 && calls.load() == 0; ++spin) {
    std::this_thread::sleep_for(1ms);
  }
  EXPECT_EQ(calls.load(), 1);
  EXPECT_EQ(message, "boom after resume");
}

TEST(DetachedTaskErrorTest, UncaughtPoisonFromAwaitLandsInHandler) {
  std::atomic<bool> saw_poison{false};
  ScopedDetachedHandler guard([&](std::exception_ptr ep) {
    try {
      std::rethrow_exception(ep);
    } catch (const CounterPoisonedError&) {
      saw_poison.store(true);
    } catch (...) {
    }
  });

  Counter c;
  std::atomic<int> state{0};
  await_level(c, 5, state);  // body has no try/catch around co_await
  c.Poison(std::make_exception_ptr(CounterPoisonedError("producer died")));
  for (int spin = 0; spin < 2000 && !saw_poison.load(); ++spin) {
    std::this_thread::sleep_for(1ms);
  }
  EXPECT_TRUE(saw_poison.load());
  EXPECT_EQ(state.load(), 0);  // the task died before its store
}

TEST(DetachedTaskErrorTest, SetHandlerReturnsPreviousAndEmptyRestoresDefault) {
  DetachedTaskErrorHandler first = [](std::exception_ptr) {};
  auto prev0 = set_detached_task_error_handler(first);
  auto prev1 = set_detached_task_error_handler({});  // back to default
  EXPECT_TRUE(static_cast<bool>(prev1));              // got `first` back
  auto prev2 = set_detached_task_error_handler(std::move(prev0));
  EXPECT_FALSE(static_cast<bool>(prev2));             // default slot is empty
  set_detached_task_error_handler(std::move(prev2));
}

}  // namespace
}  // namespace monotonic

// counter_test.cpp — semantics of all counter implementations.
//
// The typed conformance suite runs the §2 contract — plus the timed,
// async and introspection extensions every implementation gained from
// the policy-based engine — against all five BasicCounter
// instantiations AND decorated compositions (Traced<Counter>,
// Batching<HybridCounter>), so a decorator
// cannot silently weaken counter semantics.  Counter-only tests cover
// the §7 structure (nodes, pooling, snapshots) and the AnyCounter
// factory surface.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <string>
#include <thread>
#include <type_traits>
#include <vector>

#include "monotonic/core/any_counter.hpp"
#include "monotonic/core/broadcast_counter.hpp"
#include "monotonic/core/counter.hpp"
#include "monotonic/core/counter_concept.hpp"
#include "monotonic/core/counter_decorator.hpp"
#include "monotonic/core/futex_counter.hpp"
#include "monotonic/core/hybrid_counter.hpp"
#include "monotonic/core/spin_counter.hpp"
#include "monotonic/core/wait_list.hpp"
#include "monotonic/core/wait_policy.hpp"
#include "monotonic/sim/fault_env.hpp"
#include "monotonic/threads/structured.hpp"

namespace monotonic {
namespace {

using namespace std::chrono_literals;

// Every policy instantiated over the fault-injecting environment
// (fault_env.hpp).  With no FaultScope armed the injections are inert,
// so these must pass the whole conformance suite bit-for-bit — the
// fault seam itself cannot change semantics.
using FaultListCounter =
    BasicCounter<BlockingWaitT<monotonic::sim::RealFaultEnv>>;
using FaultSingleCvCounter =
    BasicCounter<SingleCvWaitT<monotonic::sim::RealFaultEnv>>;
using FaultFutexCounter =
    BasicCounter<FutexWaitT<monotonic::sim::RealFaultEnv>>;
using FaultSpinCounter = BasicCounter<SpinWaitT<monotonic::sim::RealFaultEnv>>;
using FaultHybridCounter =
    BasicCounter<HybridWaitT<monotonic::sim::RealFaultEnv>>;

// Every implementation and every decorator models the full concept
// ladder since the refactor.
static_assert(CounterLike<Counter>);
static_assert(CounterLike<SingleCvCounter>);
static_assert(CounterLike<FutexCounter>);
static_assert(CounterLike<SpinCounter>);
static_assert(CounterLike<HybridCounter>);
static_assert(TimedCounterLike<Counter>);
static_assert(TimedCounterLike<SingleCvCounter>);
static_assert(TimedCounterLike<FutexCounter>);
static_assert(TimedCounterLike<SpinCounter>);
static_assert(TimedCounterLike<HybridCounter>);
static_assert(IntrospectableCounter<Counter>);
static_assert(IntrospectableCounter<SingleCvCounter>);
static_assert(IntrospectableCounter<FutexCounter>);
static_assert(IntrospectableCounter<SpinCounter>);
static_assert(IntrospectableCounter<HybridCounter>);
static_assert(TimedCounterLike<Traced<Counter>>);
static_assert(TimedCounterLike<Batching<HybridCounter>>);
static_assert(IntrospectableCounter<Traced<Counter>>);
static_assert(IntrospectableCounter<Batching<HybridCounter>>);
static_assert(TimedCounterLike<ShardedCounter>);
static_assert(TimedCounterLike<ShardedHybridCounter>);
static_assert(IntrospectableCounter<ShardedCounter>);
static_assert(IntrospectableCounter<ShardedHybridCounter>);
static_assert(IntrospectableCounter<Traced<ShardedHybridCounter>>);
static_assert(PredicateCounterLike<Counter>);
static_assert(PredicateCounterLike<SingleCvCounter>);
static_assert(PredicateCounterLike<FutexCounter>);
static_assert(PredicateCounterLike<SpinCounter>);
static_assert(PredicateCounterLike<HybridCounter>);
static_assert(PredicateCounterLike<ShardedHybridCounter>);
static_assert(PredicateCounterLike<Traced<Counter>>);
static_assert(PredicateCounterLike<Batching<HybridCounter>>);
static_assert(PredicateCounterLike<AnyHandle>);

// Wrappers that default-construct over a sharded wait index
// (waitplane=heap:S — wait_index.hpp), so the typed suite runs the same
// bodies across shards; the default one shard never scans across them.
// Shard count 3 is deliberately not a power of two and smaller than the
// level spread, so cross-shard min-scans and level%S collisions both
// happen; the pooled variant composes preallocation with the index to
// cover the pool/recycle interaction.
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
class CounterSemantics : public ::testing::Test {
 protected:
  C counter_;
};

// Five bare implementations + three decorated compositions + the
// striped value plane (bare, over a locking policy, and under a
// decorator) + a sharded wait index (bare, pooled, and composed with
// the striped value plane).  Batching is instantiated with batch=1
// (its default), which must behave as an exact pass-through.
using AllCounterTypes =
    ::testing::Types<Counter, SingleCvCounter, FutexCounter, SpinCounter,
                     HybridCounter, Traced<Counter>, Batching<HybridCounter>,
                     ShardedCounter,
                     ShardedHybridCounter, Traced<ShardedHybridCounter>,
                     FaultListCounter, FaultSingleCvCounter,
                     FaultFutexCounter, FaultSpinCounter, FaultHybridCounter,
                     HeapPlane<Counter>, HeapPlane<HybridCounter>,
                     HeapPlane<ShardedHybridCounter>,
                     PooledHeapPlane<HybridCounter>>;

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
    if constexpr (std::is_same_v<T, HeapPlane<HybridCounter>>)
      return "heap_hybrid";
    if constexpr (std::is_same_v<T, HeapPlane<ShardedHybridCounter>>)
      return "heap_sharded_hybrid";
    if constexpr (std::is_same_v<T, PooledHeapPlane<HybridCounter>>)
      return "heap_pooled_hybrid";
  }
};

TYPED_TEST_SUITE(CounterSemantics, AllCounterTypes, CounterTypeNames);

TYPED_TEST(CounterSemantics, CheckZeroNeverBlocks) {
  // §2: initial value is zero, so Check(0) is satisfied immediately.
  this->counter_.Check(0);
}

TYPED_TEST(CounterSemantics, CheckAtOrBelowValueReturnsImmediately) {
  this->counter_.Increment(5);
  this->counter_.Check(5);
  this->counter_.Check(3);
  this->counter_.Check(0);
}

TYPED_TEST(CounterSemantics, IncrementAccumulates) {
  this->counter_.Increment(2);
  this->counter_.Increment(3);
  this->counter_.Check(5);  // would hang if increments did not accumulate
}

TYPED_TEST(CounterSemantics, IncrementZeroIsNoOp) {
  this->counter_.Increment(0);
  this->counter_.Increment(0);
  this->counter_.Increment(1);
  this->counter_.Check(1);
}

TYPED_TEST(CounterSemantics, CheckBlocksUntilLevelReached) {
  std::atomic<bool> passed{false};
  std::jthread waiter([&] {
    this->counter_.Check(3);
    passed.store(true);
  });
  std::this_thread::sleep_for(20ms);
  EXPECT_FALSE(passed.load());
  this->counter_.Increment(2);
  std::this_thread::sleep_for(20ms);
  EXPECT_FALSE(passed.load()) << "woke below the requested level";
  this->counter_.Increment(1);
  waiter.join();
  EXPECT_TRUE(passed.load());
}

TYPED_TEST(CounterSemantics, PredicateCheckSatisfiedReturnsImmediately) {
  this->counter_.Increment(5);
  this->counter_.Check([](counter_value_t v) { return v >= 5; });
  this->counter_.Check([](counter_value_t v) { return v >= 2; });
  this->counter_.Check([](counter_value_t) { return true; });
}

TYPED_TEST(CounterSemantics, PredicateCheckBlocksUntilThresholdReached) {
  // The engine reduces the monotone predicate to the exact threshold 3
  // and parks through the ordinary wait plane — a wake at 2 would mean
  // the reduction (or the rearm) is wrong.
  std::atomic<bool> passed{false};
  std::jthread waiter([&] {
    this->counter_.Check([](counter_value_t v) { return v >= 3; });
    passed.store(true);
  });
  std::this_thread::sleep_for(20ms);
  EXPECT_FALSE(passed.load());
  this->counter_.Increment(2);
  std::this_thread::sleep_for(20ms);
  EXPECT_FALSE(passed.load()) << "woke below the reduced threshold";
  this->counter_.Increment(1);
  waiter.join();
  EXPECT_TRUE(passed.load());
}

TYPED_TEST(CounterSemantics, PredicateCheckCancellable) {
  // v >= 100 is never reached, so the stop request is the only way out
  // and the return value must say "cancelled".
  std::stop_source ss;
  std::atomic<bool> returned{true};
  std::jthread waiter([&] {
    returned.store(this->counter_.Check(
        [](counter_value_t v) { return v >= 100; }, ss.get_token()));
  });
  std::this_thread::sleep_for(20ms);
  ss.request_stop();
  waiter.join();
  EXPECT_FALSE(returned.load());
}

TYPED_TEST(CounterSemantics, SingleIncrementWakesAllLevelsReached) {
  // One big Increment must release waiters at several distinct levels.
  std::atomic<int> released{0};
  std::vector<std::jthread> waiters;
  for (counter_value_t level : {1u, 2u, 3u, 4u}) {
    waiters.emplace_back([&, level] {
      this->counter_.Check(level);
      released.fetch_add(1);
    });
  }
  std::this_thread::sleep_for(50ms);
  EXPECT_EQ(released.load(), 0);
  this->counter_.Increment(10);
  waiters.clear();  // join
  EXPECT_EQ(released.load(), 4);
}

TYPED_TEST(CounterSemantics, ManyWaitersAtSameLevelAllWake) {
  constexpr int kWaiters = 8;
  std::atomic<int> released{0};
  {
    std::vector<std::jthread> waiters;
    for (int i = 0; i < kWaiters; ++i) {
      waiters.emplace_back([&] {
        this->counter_.Check(7);
        released.fetch_add(1);
      });
    }
    std::this_thread::sleep_for(20ms);
    this->counter_.Increment(7);
  }
  EXPECT_EQ(released.load(), kWaiters);
}

TYPED_TEST(CounterSemantics, WriterReaderHandoff) {
  // §5.3's per-item broadcast, single reader: data written before the
  // Increment must be visible after the corresponding Check.
  constexpr int kItems = 200;
  std::vector<int> data(kItems, -1);
  multithreaded_block(
      [&] {  // writer
        for (int i = 0; i < kItems; ++i) {
          data[i] = i * i;
          this->counter_.Increment(1);
        }
      },
      [&] {  // reader
        for (int i = 0; i < kItems; ++i) {
          this->counter_.Check(static_cast<counter_value_t>(i) + 1);
          EXPECT_EQ(data[i], i * i);
        }
      });
}

TYPED_TEST(CounterSemantics, ConcurrentIncrementsAllCounted) {
  constexpr int kThreads = 4;
  constexpr int kPerThread = 1000;
  multithreaded_for(0, kThreads, 1, [&](int) {
    for (int i = 0; i < kPerThread; ++i) this->counter_.Increment(1);
  });
  this->counter_.Check(kThreads * kPerThread);  // hangs if any were lost
}

TYPED_TEST(CounterSemantics, LargeAmountsAndLevels) {
  const counter_value_t big = counter_value_t{1} << 40;
  this->counter_.Increment(big);
  this->counter_.Check(big);
  this->counter_.Increment(big);
  this->counter_.Check(2 * big);
}

TYPED_TEST(CounterSemantics, OverflowIsRejected) {
  // Lock-free policies spend one bit on the attention flag, so their
  // range is half of the locked implementations'; every type (including
  // decorators) advertises its bound as kMaxValue.
  const counter_value_t max = TypeParam::kMaxValue;
  this->counter_.Increment(max);
  EXPECT_THROW(this->counter_.Increment(1), std::invalid_argument);
}

TYPED_TEST(CounterSemantics, StatsCountOperations) {
  this->counter_.Increment(1);
  this->counter_.Increment(1);
  this->counter_.Check(1);
  auto s = this->counter_.stats();
  EXPECT_EQ(s.increments, 2u);
  EXPECT_EQ(s.checks, 1u);
  EXPECT_EQ(s.fast_checks, 1u);
  EXPECT_EQ(s.suspensions, 0u);
}

TYPED_TEST(CounterSemantics, SnapshotTracksValueAndWaiters) {
  // Every implementation exposes the Figure 2 structural shape now that
  // the wait list lives in the shared engine.
  auto snap = this->counter_.debug_snapshot();
  EXPECT_EQ(snap.value, 0u);
  EXPECT_TRUE(snap.wait_levels.empty());

  this->counter_.Increment(3);
  std::jthread waiter([&] { this->counter_.Check(10); });
  for (;;) {
    snap = this->counter_.debug_snapshot();
    std::size_t waiting = 0;
    for (const auto& wl : snap.wait_levels) waiting += wl.waiters;
    if (waiting == 1) break;
    std::this_thread::sleep_for(1ms);
  }
  ASSERT_EQ(snap.wait_levels.size(), 1u);
  EXPECT_EQ(snap.value, 3u);
  EXPECT_EQ(snap.wait_levels[0].level, 10u);
  EXPECT_EQ(snap.wait_levels[0].waiters, 1u);
  this->counter_.Increment(7);
  waiter.join();
  EXPECT_TRUE(this->counter_.debug_snapshot().wait_levels.empty());
}

// ---------------------------------------------------------------------
// Timed checks — uniform across policies since the engine owns the
// timed-unlink machinery.

TYPED_TEST(CounterSemantics, CheckForTimesOutBelowLevelAndUnlinks) {
  this->counter_.Increment(3);
  EXPECT_FALSE(this->counter_.CheckFor(10, 20ms));
  // The timed-out waiter must have removed its node (storage bound).
  EXPECT_TRUE(this->counter_.debug_snapshot().wait_levels.empty());
}

TYPED_TEST(CounterSemantics, CheckForSucceedsImmediatelyAtLevel) {
  this->counter_.Increment(10);
  EXPECT_TRUE(this->counter_.CheckFor(10, 1ms));
}

TYPED_TEST(CounterSemantics, CheckForSucceedsWhenIncrementArrives) {
  std::jthread incrementer([&] {
    std::this_thread::sleep_for(10ms);
    this->counter_.Increment(5);
  });
  EXPECT_TRUE(this->counter_.CheckFor(5, 5s));
}

TYPED_TEST(CounterSemantics, CheckUntilSteadyClockRespectsDeadline) {
  const auto deadline = std::chrono::steady_clock::now() + 20ms;
  EXPECT_FALSE(this->counter_.CheckUntil(1, deadline));
}

TYPED_TEST(CounterSemantics, CheckUntilSystemClockDeadline) {
  // Regression: CheckUntil used time_point_cast, which converts only
  // the duration type, not the clock epoch — a system_clock deadline
  // (epoch 1970) cast to steady_clock (epoch ~boot) landed decades in
  // the future, so the timeout below would never fire.  Deadlines on
  // non-steady clocks are now converted via a now()-delta.
  const auto past_deadline = std::chrono::system_clock::now() + 20ms;
  EXPECT_FALSE(this->counter_.CheckUntil(1, past_deadline));

  std::jthread incrementer([&] {
    std::this_thread::sleep_for(10ms);
    this->counter_.Increment(2);
  });
  EXPECT_TRUE(
      this->counter_.CheckUntil(2, std::chrono::system_clock::now() + 5s));
}

// ---------------------------------------------------------------------
// OnReach — the async Check, now on every implementation.

TYPED_TEST(CounterSemantics, OnReachRunsImmediatelyWhenReached) {
  this->counter_.Increment(4);
  bool ran = false;
  this->counter_.OnReach(3, [&] { ran = true; });
  EXPECT_TRUE(ran);
}

TYPED_TEST(CounterSemantics, OnReachFiresInLevelThenRegistrationOrder) {
  std::vector<int> order;
  this->counter_.OnReach(2, [&] { order.push_back(20); });
  this->counter_.OnReach(1, [&] { order.push_back(10); });
  this->counter_.OnReach(1, [&] { order.push_back(11); });
  EXPECT_TRUE(order.empty());
  this->counter_.Increment(2);  // releases both levels in one call
  ASSERT_EQ(order.size(), 3u);
  EXPECT_EQ(order[0], 10);
  EXPECT_EQ(order[1], 11);
  EXPECT_EQ(order[2], 20);
}

TYPED_TEST(CounterSemantics, OnReachMayReenterCounter) {
  // Callbacks run outside the internal lock (CP.22), so they may call
  // back into the same counter.
  bool chained = false;
  this->counter_.OnReach(1, [&] { this->counter_.Increment(1); });
  this->counter_.OnReach(2, [&] { chained = true; });
  this->counter_.Increment(1);
  EXPECT_TRUE(chained);
  this->counter_.Check(2);
}

TYPED_TEST(CounterSemantics, ResetRestartsFromZero) {
  this->counter_.Increment(42);
  this->counter_.Reset();
  EXPECT_EQ(this->counter_.debug_value(), 0u);
  // Reusable for a new phase (§2's motivation for Reset).
  std::jthread waiter([&] { this->counter_.Check(2); });
  std::this_thread::sleep_for(10ms);
  this->counter_.Increment(2);
}

// ---------------------------------------------------------------------
// Counter (paper §7 implementation) specifics.

TEST(CounterStructure, SnapshotInitiallyEmpty) {
  Counter c;
  auto snap = c.debug_snapshot();
  EXPECT_EQ(snap.value, 0u);
  EXPECT_TRUE(snap.wait_levels.empty());
}

TEST(CounterStructure, NodePerDistinctLevelNotPerWaiter) {
  // §7: "storage ... proportional to the number of different levels on
  // which threads are waiting, not to the total number of waiting
  // threads."
  Counter c;
  std::vector<std::jthread> waiters;
  for (int i = 0; i < 6; ++i) {
    waiters.emplace_back([&c] { c.Check(10); });  // six waiters, one level
  }
  for (int i = 0; i < 2; ++i) {
    waiters.emplace_back([&c] { c.Check(20); });  // two waiters, one level
  }
  // Wait until all eight are suspended.
  while (true) {
    auto snap = c.debug_snapshot();
    std::size_t total = 0;
    for (auto& wl : snap.wait_levels) total += wl.waiters;
    if (total == 8) break;
    std::this_thread::sleep_for(1ms);
  }
  auto snap = c.debug_snapshot();
  ASSERT_EQ(snap.wait_levels.size(), 2u);
  EXPECT_EQ(snap.wait_levels[0].level, 10u);
  EXPECT_EQ(snap.wait_levels[0].waiters, 6u);
  EXPECT_EQ(snap.wait_levels[1].level, 20u);
  EXPECT_EQ(snap.wait_levels[1].waiters, 2u);
  EXPECT_EQ(c.stats().max_live_nodes, 2u);
  c.Increment(20);
  waiters.clear();
  EXPECT_TRUE(c.debug_snapshot().wait_levels.empty());
}

TEST(CounterStructure, WaitListStaysSortedAscending) {
  Counter c;
  std::vector<std::jthread> waiters;
  for (counter_value_t level : {50u, 10u, 30u, 20u, 40u}) {
    waiters.emplace_back([&c, level] { c.Check(level); });
  }
  while (c.debug_snapshot().wait_levels.size() < 5) {
    std::this_thread::sleep_for(1ms);
  }
  auto snap = c.debug_snapshot();
  ASSERT_EQ(snap.wait_levels.size(), 5u);
  for (std::size_t i = 1; i < snap.wait_levels.size(); ++i) {
    EXPECT_LT(snap.wait_levels[i - 1].level, snap.wait_levels[i].level);
  }
  c.Increment(50);
  waiters.clear();
}

TEST(CounterStructure, PartialReleaseRemovesOnlyReachedLevels) {
  Counter c;
  std::vector<std::jthread> waiters;
  for (counter_value_t level : {5u, 9u}) {
    waiters.emplace_back([&c, level] { c.Check(level); });
  }
  while (c.debug_snapshot().wait_levels.size() < 2) {
    std::this_thread::sleep_for(1ms);
  }
  c.Increment(7);  // releases level 5, leaves level 9 (Figure 2 step e/f)
  while (c.debug_snapshot().wait_levels.size() > 1) {
    std::this_thread::sleep_for(1ms);
  }
  auto snap = c.debug_snapshot();
  EXPECT_EQ(snap.value, 7u);
  ASSERT_EQ(snap.wait_levels.size(), 1u);
  EXPECT_EQ(snap.wait_levels[0].level, 9u);
  c.Increment(2);
  waiters.clear();
}

TEST(CounterStructure, NodePoolReusesNodes) {
  Counter c;  // pooling on by default
  for (int round = 0; round < 5; ++round) {
    std::jthread waiter(
        [&c, round] { c.Check(static_cast<counter_value_t>(round) + 1); });
    while (c.debug_snapshot().wait_levels.empty()) {
      std::this_thread::sleep_for(1ms);
    }
    c.Increment(1);
  }
  auto s = c.stats();
  EXPECT_EQ(s.nodes_allocated, 5u);
  EXPECT_GE(s.pool_hits, 4u) << "later rounds should reuse pooled nodes";
  EXPECT_EQ(s.live_nodes, 0u);
}

TEST(CounterStructure, NoPoolOptionAllocatesFresh) {
  Counter::Options opts;
  opts.pool_nodes = false;
  Counter c(opts);
  for (int round = 0; round < 3; ++round) {
    std::jthread waiter(
        [&c, round] { c.Check(static_cast<counter_value_t>(round) + 1); });
    while (c.debug_snapshot().wait_levels.empty()) {
      std::this_thread::sleep_for(1ms);
    }
    c.Increment(1);
  }
  auto s = c.stats();
  EXPECT_EQ(s.nodes_allocated, 3u);
  EXPECT_EQ(s.pool_hits, 0u);
}

TEST(CounterStructure, StatsResetKeepsLevelsAndConfiguration) {
  CounterStats stats;
  stats.set_stripe_count(4);
  stats.on_node_allocated(false);
  stats.on_node_allocated(true);
  stats.on_node_freed();  // one node still live; the peak was two
  stats.on_index_depth(3);
  stats.reset();
  const CounterStatsSnapshot s = stats.snapshot();
  EXPECT_EQ(s.nodes_allocated, 0u);
  EXPECT_EQ(s.pool_hits, 0u);
  EXPECT_EQ(s.live_nodes, 1u);
  EXPECT_EQ(s.max_live_nodes, 1u);  // lowered to its level
  EXPECT_EQ(s.index_depth, 0u);     // a peak with no level: zeroed
  EXPECT_EQ(s.stripe_count, 4u);
  EXPECT_EQ(s.wait_shard_count, 1u);
}

TEST(CounterReset, ResetWithWaitersIsAnError) {
  Counter c;
  std::jthread waiter([&c] { c.Check(1); });
  while (c.debug_snapshot().wait_levels.empty()) {
    std::this_thread::sleep_for(1ms);
  }
  EXPECT_THROW(c.Reset(), std::invalid_argument);
  c.Increment(1);
}

TEST(CounterReset, ResetWithPendingCallbacksIsAnError) {
  Counter c;
  c.OnReach(5, [] {});
  c.OnReach(9, [] {});
  // The error is typed (CounterError) and names every pending level, so
  // the caller knows which registrations are keeping the counter alive.
  try {
    c.Reset();
    FAIL() << "Reset with pending OnReach callbacks did not throw";
  } catch (const CounterError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("levels 5, 9"), std::string::npos) << what;
  }
  c.Increment(9);  // run the callbacks so the counter can wind down
  c.Reset();
}

TEST(CounterTimed, TimedWaiterSharingNodeDoesNotStrandOthers) {
  Counter c;
  std::atomic<bool> passed{false};
  std::jthread persistent([&] {
    c.Check(5);
    passed.store(true);
  });
  while (c.debug_snapshot().wait_levels.empty()) {
    std::this_thread::sleep_for(1ms);
  }
  EXPECT_FALSE(c.CheckFor(5, 10ms));  // joins then abandons the same node
  auto snap = c.debug_snapshot();
  ASSERT_EQ(snap.wait_levels.size(), 1u);
  EXPECT_EQ(snap.wait_levels[0].waiters, 1u);
  c.Increment(5);
  persistent.join();
  EXPECT_TRUE(passed.load());
}

// ---------------------------------------------------------------------
// AnyCounter factory (kind-based; spec strings in counter_spec_test).

TEST(AnyCounter, FactoryProducesEveryKind) {
  for (CounterKind kind : all_counter_kinds()) {
    auto c = make_counter(kind);
    ASSERT_NE(c, nullptr);
    EXPECT_EQ(c->kind(), kind);
    EXPECT_EQ(c->spec(), std::string(to_string(kind)));
    c->Increment(3);
    c->Check(3);
    EXPECT_EQ(c->stats().increments, 1u);
    EXPECT_EQ(c->debug_value(), 3u);
    c->Reset();
    c->Check(0);
  }
}

TEST(AnyCounter, KindNamesRoundTrip) {
  for (CounterKind kind : all_counter_kinds()) {
    EXPECT_EQ(counter_kind_from_string(to_string(kind)), kind);
  }
  EXPECT_THROW(counter_kind_from_string("bogus"), std::invalid_argument);
}

TEST(AnyCounter, BlocksAndWakesThroughInterface) {
  for (CounterKind kind : all_counter_kinds()) {
    auto c = make_counter(kind);
    std::atomic<bool> passed{false};
    std::jthread waiter([&] {
      c->Check(2);
      passed.store(true);
    });
    std::this_thread::sleep_for(5ms);
    EXPECT_FALSE(passed.load()) << to_string(kind);
    c->Increment(2);
    waiter.join();
    EXPECT_TRUE(passed.load()) << to_string(kind);
  }
}

TEST(AnyCounter, TimedAndAsyncThroughInterface) {
  // The virtual interface carries CheckFor and OnReach now that every
  // implementation supports them.
  for (CounterKind kind : all_counter_kinds()) {
    auto c = make_counter(kind);
    EXPECT_FALSE(c->CheckFor(1, std::chrono::nanoseconds(2ms)))
        << to_string(kind);
    bool ran = false;
    c->OnReach(2, [&] { ran = true; });
    c->Increment(2);
    EXPECT_TRUE(ran) << to_string(kind);
    EXPECT_TRUE(c->CheckFor(2, std::chrono::nanoseconds(1ms)))
        << to_string(kind);
    EXPECT_EQ(c->debug_value(), 2u) << to_string(kind);
    EXPECT_TRUE(c->debug_snapshot().wait_levels.empty()) << to_string(kind);
  }
}

}  // namespace
}  // namespace monotonic

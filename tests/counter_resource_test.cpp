// counter_resource_test.cpp — resource exhaustion and overload, over
// real threads.
//
// The resource-model claims under test (see basic_counter.hpp
// "Resource model" and wait_list.hpp):
//
//   * every allocation point inside Check/CheckFor/OnReach gives the
//     STRONG guarantee: an injected bad_alloc surfaces as
//     CounterResourceError and the counter is immediately usable —
//     proven by sweeping the failure across every allocation ordinal
//     until no allocation remains (the satellite-1 regression);
//   * "pooled[:N]" preallocation makes the steady state
//     allocation-free (pool_hits / pool_misses tell the story);
//   * bounded admission (max_waiters) turns an overload storm into the
//     configured outcome — CounterOverloadedError or the admission
//     gate — with no thread ever left parked;
//   * the spec grammar round-trips all of the above.
//
// Fault injection comes from FaultEnvT<RealEngineEnv> (fault_env.hpp):
// the same injection code the deterministic sim scenarios use, here
// composed over real threads and the real clock.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "monotonic/core/any_counter.hpp"
#include "monotonic/core/basic_counter.hpp"
#include "monotonic/core/counter_error.hpp"
#include "monotonic/core/wait_list.hpp"
#include "monotonic/core/wait_policy.hpp"
#include "monotonic/sim/fault_env.hpp"

namespace {

using namespace monotonic;
using monotonic::sim::FaultPlan;
using monotonic::sim::FaultScope;
using monotonic::sim::RealFaultEnv;
using monotonic::sim::fault_state;

using FaultBlockingCounter = BasicCounter<BlockingWaitT<RealFaultEnv>>;
using FaultFutexCounter = BasicCounter<FutexWaitT<RealFaultEnv>>;
using FaultHybridCounter = BasicCounter<HybridWaitT<RealFaultEnv>>;

// Sharded wait index (waitplane=heap:S — wait_index.hpp) over the
// fault env: the allocation sweeps must also cover a multi-shard index.
inline WaitListOptions heap_plane_options(std::size_t shards) {
  WaitListOptions o;
  o.wait_shards = shards;
  return o;
}

template <typename C>
struct HeapPlane : C {
  HeapPlane() : C(heap_plane_options(2)) {}
};

// ---------------------------------------------------------------------------
// Error taxonomy
// ---------------------------------------------------------------------------

TEST(CounterResource, ErrorHierarchy) {
  // Resource and overload failures must be catchable at every level a
  // caller might reasonably hold: exact type, CounterError, runtime.
  try {
    throw CounterResourceError("node allocation failed");
  } catch (const CounterError& e) {
    EXPECT_STREQ(e.what(), "node allocation failed");
  }
  try {
    throw CounterOverloadedError("admission rejected");
  } catch (const CounterError& e) {
    EXPECT_STREQ(e.what(), "admission rejected");
  }
  EXPECT_THROW(throw CounterResourceError("x"), std::runtime_error);
  EXPECT_THROW(throw CounterOverloadedError("x"), std::runtime_error);
}

// ---------------------------------------------------------------------------
// Pool stats: "pooled[:N]" means an allocation-free steady state
// ---------------------------------------------------------------------------

// One park-and-release round: a waiter parks at `level`, the main
// thread tops the counter up to it.
void park_release_round(AnyCounter& c, counter_value_t level) {
  std::thread waiter([&] { c.Check(level); });
  while (c.stats().live_nodes == 0) std::this_thread::yield();
  c.Increment(level - c.debug_value());
  waiter.join();
}

TEST(CounterResource, PooledSpecNeverTouchesTheHeap) {
  auto c = make_counter("pooled:8+list");
  for (counter_value_t level = 1; level <= 4; ++level) {
    park_release_round(*c, level);
  }
  const auto s = c->stats();
  EXPECT_EQ(s.pool_hits, 4u) << "preallocated nodes not used";
  EXPECT_EQ(s.pool_misses, 0u) << "pooled spec still hit the allocator";
  EXPECT_EQ(s.live_nodes, 0u);
}

TEST(CounterResource, PooledHeapPlaneSpecReusesPooledNodes) {
  // The pool covers wait NODES on a sharded index too — the index's own
  // bookkeeping (table, heap slot) is separate, but a hot level's node
  // must keep coming from the free list.
  auto c = make_counter("pooled:8+list,waitplane=heap:2");
  for (counter_value_t level = 1; level <= 4; ++level) {
    park_release_round(*c, level);
  }
  const auto s = c->stats();
  EXPECT_EQ(s.pool_hits, 4u) << "preallocated nodes not used";
  EXPECT_EQ(s.pool_misses, 0u) << "pooled heap-plane spec hit the allocator";
  EXPECT_EQ(s.live_nodes, 0u);
  EXPECT_EQ(s.wait_shard_count, 2u);
}

TEST(CounterResource, UnpooledSpecPaysTheAllocatorEveryTime) {
  auto c = make_counter("list,pool=0");
  for (counter_value_t level = 1; level <= 3; ++level) {
    park_release_round(*c, level);
  }
  const auto s = c->stats();
  EXPECT_EQ(s.pool_hits, 0u);
  EXPECT_EQ(s.pool_misses, 3u);
  EXPECT_EQ(s.live_nodes, 0u);
}

// ---------------------------------------------------------------------------
// The allocation-failure sweep (satellite-1 regression): inject
// bad_alloc at allocation ordinal k = 1, 2, ... until the operation
// performs no k-th allocation at all.  Every faulted round must throw
// CounterResourceError (never raw bad_alloc) and leave the counter
// fully usable; the final round proves the sweep covered every
// allocation point the operation has.
// ---------------------------------------------------------------------------

template <typename C, typename Op>
void sweep_parked_op(Op&& op, std::uint64_t min_alloc_points) {
  for (std::uint64_t k = 1;; ++k) {
    C c;
    std::atomic<bool> done{false};
    bool threw = false;
    std::uint64_t failed = 0;
    {
      FaultPlan plan;
      plan.fail_alloc_at = k;
      FaultScope scope(plan);
      // The releaser waits for the park (live_nodes > 0) — or for the
      // faulted operation to give up — so the operation cannot be
      // satisfied before it reaches its allocations.
      std::thread releaser([&] {
        while (!done.load(std::memory_order_acquire) &&
               c.stats().live_nodes == 0) {
          std::this_thread::yield();
        }
        c.Increment(1);
      });
      try {
        op(c);
      } catch (const CounterResourceError&) {
        threw = true;
      }
      done.store(true, std::memory_order_release);
      releaser.join();
      failed = fault_state().allocs_failed.load(std::memory_order_relaxed);
    }
    // Strong guarantee: the same counter works either way (the
    // releaser's increment landed, so this is a fast-path probe plus
    // structural checks).
    c.Check(1);
    EXPECT_EQ(c.stats().live_nodes, 0u) << "node leaked at ordinal " << k;
    if (failed == 0) {
      // The operation never reached a k-th allocation: sweep complete.
      EXPECT_FALSE(threw);
      EXPECT_GE(k, min_alloc_points + 1) << "sweep ended before covering "
                                         << "the expected allocation points";
      break;
    }
    EXPECT_TRUE(threw) << "allocation " << k
                       << " failed but the operation succeeded";
    ASSERT_LT(k, 64u) << "sweep did not terminate";
  }
}

TEST(CounterResource, AllocFailureSweepCheckBlocking) {
  sweep_parked_op<FaultBlockingCounter>(
      [](FaultBlockingCounter& c) { c.Check(1); }, 1);
}

TEST(CounterResource, AllocFailureSweepCheckHybrid) {
  sweep_parked_op<FaultHybridCounter>(
      [](FaultHybridCounter& c) { c.Check(1); }, 1);
}

TEST(CounterResource, AllocFailureSweepCheckFutex) {
  sweep_parked_op<FaultFutexCounter>(
      [](FaultFutexCounter& c) { c.Check(1); }, 1);
}

TEST(CounterResource, AllocFailureSweepCheckFor) {
  sweep_parked_op<FaultBlockingCounter>(
      [](FaultBlockingCounter& c) {
        EXPECT_TRUE(c.CheckFor(1, std::chrono::seconds(60)));
      },
      1);
}

TEST(CounterResource, AllocFailureSweepCheckHeapPlane) {
  // A fresh park allocates the node, may build or grow the level
  // table, and may grow the heap array — three distinct failure sites,
  // each of which must unwind to the pre-call state.
  sweep_parked_op<HeapPlane<FaultHybridCounter>>(
      [](HeapPlane<FaultHybridCounter>& c) { c.Check(1); }, 3);
}

template <typename C>
void sweep_onreach_fresh(std::uint64_t min_alloc_points) {
  // Fresh-level registrations take the node-allocation branch of
  // CallbackListT::insert.
  for (std::uint64_t k = 1;; ++k) {
    C c;
    std::atomic<int> fired{0};
    bool threw = false;
    std::uint64_t failed = 0;
    {
      FaultPlan plan;
      plan.fail_alloc_at = k;
      FaultScope scope(plan);
      try {
        c.OnReach(1, [&] { fired.fetch_add(1, std::memory_order_relaxed); });
      } catch (const CounterResourceError&) {
        threw = true;
      }
      failed = fault_state().allocs_failed.load(std::memory_order_relaxed);
    }
    if (threw) {
      // Strong guarantee: the rejected registration left nothing
      // behind — a healthy retry is the one and only callback.
      EXPECT_EQ(fired.load(), 0);
      c.OnReach(1, [&] { fired.fetch_add(1, std::memory_order_relaxed); });
    }
    c.Increment(1);
    EXPECT_EQ(fired.load(), 1) << "ordinal " << k;
    if (failed == 0) {
      EXPECT_FALSE(threw);
      EXPECT_GE(k, min_alloc_points + 1)
          << "sweep ended before covering the expected allocation points";
      break;
    }
    EXPECT_TRUE(threw) << "allocation " << k
                       << " failed but OnReach registered";
    ASSERT_LT(k, 64u) << "sweep did not terminate";
  }
}

TEST(CounterResource, AllocFailureSweepOnReachFreshLevel) {
  sweep_onreach_fresh<FaultHybridCounter>(1);
}

TEST(CounterResource, AllocFailureSweepOnReachFreshLevelHeapPlane) {
  // The level index adds the table and heap-slot sites to the
  // fresh-callback-node path.
  sweep_onreach_fresh<HeapPlane<FaultHybridCounter>>(3);
}

TEST(CounterResource, AllocFailureSweepOnReachJoinedLevel) {
  // A second registration on the SAME level takes the other branch —
  // growing the existing node's entry vector.
  for (std::uint64_t k = 1;; ++k) {
    FaultHybridCounter c;
    std::atomic<int> fired{0};
    c.OnReach(2, [&] { fired.fetch_add(1, std::memory_order_relaxed); });
    bool threw = false;
    std::uint64_t failed = 0;
    {
      FaultPlan plan;
      plan.fail_alloc_at = k;
      FaultScope scope(plan);
      try {
        c.OnReach(2, [&] { fired.fetch_add(10, std::memory_order_relaxed); });
      } catch (const CounterResourceError&) {
        threw = true;
      }
      failed = fault_state().allocs_failed.load(std::memory_order_relaxed);
    }
    if (threw) {
      // The first registration must have survived untouched.
      EXPECT_EQ(fired.load(), 0);
      c.OnReach(2, [&] { fired.fetch_add(10, std::memory_order_relaxed); });
    }
    c.Increment(2);
    EXPECT_EQ(fired.load(), 11) << "ordinal " << k;
    if (failed == 0) {
      EXPECT_FALSE(threw);
      EXPECT_GE(k, 2u);
      break;
    }
    EXPECT_TRUE(threw) << "allocation " << k
                       << " failed but OnReach registered";
    ASSERT_LT(k, 64u) << "sweep did not terminate";
  }
}

// ---------------------------------------------------------------------------
// The scan/table crossover under faults.  A shard of the level index
// finds levels by scanning up to eight of them and builds its level
// table when a ninth links (wait_index.hpp).  With eight levels already
// armed, sweep the failure over the ninth level's park and over a
// fresh-level OnReach: every faulted round must leave the live level
// set exactly as it was, and the counter usable.
// ---------------------------------------------------------------------------

// Waiters linked into the wait index — unlike stats().live_nodes, which
// counts a node from its allocation, before its link has allocated.
std::size_t parked_waiters(const FaultHybridCounter& c) {
  std::size_t waiters = 0;
  for (const auto& wl : c.debug_snapshot().wait_levels) waiters += wl.waiters;
  return waiters;
}

std::vector<counter_value_t> parked_levels(const FaultHybridCounter& c) {
  std::vector<counter_value_t> levels;
  for (const auto& wl : c.debug_snapshot().wait_levels) {
    EXPECT_EQ(wl.waiters, 1u) << "level " << wl.level;
    levels.push_back(wl.level);
  }
  return levels;
}

TEST(CounterResource, AllocFailureSweepNinthLevelPark) {
  const std::vector<counter_value_t> armed = {11, 12, 13, 14,
                                              15, 16, 17, 18};
  for (std::uint64_t k = 1;; ++k) {
    FaultHybridCounter c;
    std::vector<std::thread> waiters;
    for (counter_value_t level : armed) {
      waiters.emplace_back([&c, level] { c.Check(level); });
    }
    while (parked_waiters(c) < armed.size()) std::this_thread::yield();
    std::atomic<bool> done{false};
    bool threw = false;
    std::uint64_t failed = 0;
    {
      FaultPlan plan;
      plan.fail_alloc_at = k;
      FaultScope scope(plan);
      // The ninth level (1) sits below the armed ones, so the releaser's
      // Increment(1) frees it alone.
      std::thread releaser([&] {
        while (!done.load(std::memory_order_acquire) &&
               c.stats().live_nodes == armed.size()) {
          std::this_thread::yield();
        }
        c.Increment(1);
      });
      try {
        c.Check(1);
      } catch (const CounterResourceError&) {
        threw = true;
      }
      done.store(true, std::memory_order_release);
      releaser.join();
      failed = fault_state().allocs_failed.load(std::memory_order_relaxed);
    }
    EXPECT_EQ(parked_levels(c), armed) << "ordinal " << k;
    // Still usable: a join at an armed level finds its node, and the
    // armed waiters release.
    std::thread joiner([&c] { c.Check(15); });
    while (parked_waiters(c) < armed.size() + 1) std::this_thread::yield();
    const auto snap = c.debug_snapshot().wait_levels;
    ASSERT_EQ(snap.size(), armed.size()) << "join linked a duplicate level";
    EXPECT_EQ(snap[4].level, 15u);
    EXPECT_EQ(snap[4].waiters, 2u);
    c.Increment(armed.back() - 1);
    joiner.join();
    for (auto& t : waiters) t.join();
    EXPECT_EQ(c.stats().live_nodes, 0u) << "node leaked at ordinal " << k;
    if (failed == 0) {
      EXPECT_FALSE(threw);
      EXPECT_GE(k, 4u) << "sweep ended before covering the node, table "
                       << "and heap-slot sites";
      break;
    }
    EXPECT_TRUE(threw) << "allocation " << k
                       << " failed but the park succeeded";
    ASSERT_LT(k, 64u) << "sweep did not terminate";
  }
}

TEST(CounterResource, AllocFailureSweepNinthLevelOnReach) {
  const std::vector<counter_value_t> armed = {11, 12, 13, 14,
                                              15, 16, 17, 18};
  for (std::uint64_t k = 1;; ++k) {
    FaultHybridCounter c;
    std::atomic<int> fired{0};
    for (counter_value_t level : armed) {
      c.OnReach(level, [&] { fired.fetch_add(1, std::memory_order_relaxed); });
    }
    bool threw = false;
    std::uint64_t failed = 0;
    {
      FaultPlan plan;
      plan.fail_alloc_at = k;
      FaultScope scope(plan);
      try {
        c.OnReach(1, [&] { fired.fetch_add(100, std::memory_order_relaxed); });
      } catch (const CounterResourceError&) {
        threw = true;
      }
      failed = fault_state().allocs_failed.load(std::memory_order_relaxed);
    }
    if (threw) {
      EXPECT_EQ(c.debug_snapshot().callback_levels, armed) << "ordinal " << k;
      c.OnReach(1, [&] { fired.fetch_add(100, std::memory_order_relaxed); });
    }
    // A join at an armed level must find its node through whichever
    // index the shard is on.
    c.OnReach(15, [&] { fired.fetch_add(1, std::memory_order_relaxed); });
    c.Increment(1);
    EXPECT_EQ(fired.load(), 100) << "ordinal " << k;
    c.Increment(armed.back() - 1);
    EXPECT_EQ(fired.load(), 109) << "ordinal " << k;
    EXPECT_TRUE(c.debug_snapshot().callback_levels.empty());
    if (failed == 0) {
      EXPECT_FALSE(threw);
      EXPECT_GE(k, 4u) << "sweep ended before covering the node, table "
                       << "and heap-slot sites";
      break;
    }
    EXPECT_TRUE(threw) << "allocation " << k
                       << " failed but OnReach registered";
    ASSERT_LT(k, 64u) << "sweep did not terminate";
  }
}

// ---------------------------------------------------------------------------
// FaultEnv over real threads: spurious wakes and futex interrupts
// ---------------------------------------------------------------------------

TEST(CounterResource, SpuriousWakesDoNotDoubleCountTimeouts) {
  FaultBlockingCounter c;
  FaultPlan plan;
  plan.spurious_every = 1;
  plan.spurious_budget = 3;
  FaultScope scope(plan);
  EXPECT_FALSE(c.CheckFor(5, std::chrono::milliseconds(50)));
  const auto s = c.stats();
  EXPECT_EQ(s.timed_out_checks, 1u);
  EXPECT_GE(s.spurious_wakeups, 1u);
  EXPECT_EQ(s.live_nodes, 0u);
}

TEST(CounterResource, FutexInterruptsDoNotLoseTheWake) {
  FaultFutexCounter c;
  FaultPlan plan;
  plan.futex_every = 1;
  plan.futex_budget = 3;
  FaultScope scope(plan);
  std::thread releaser([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    c.Increment(2);
  });
  c.Check(2);
  releaser.join();
  EXPECT_EQ(c.debug_value(), 2u);
  EXPECT_EQ(c.stats().live_nodes, 0u);
}

// ---------------------------------------------------------------------------
// Bounded admission, policy by policy (spec-string surface)
// ---------------------------------------------------------------------------

TEST(CounterResource, AdmissionThrowRejectsTheOverCapWaiter) {
  auto c = make_counter("hybrid,max_waiters=2");
  std::thread w1([&] { c->Check(5); });
  std::thread w2([&] { c->Check(5); });
  while (c->stats().suspensions < 2) std::this_thread::yield();
  EXPECT_THROW(c->Check(5), CounterOverloadedError);
  EXPECT_THROW((void)c->CheckFor(5, std::chrono::seconds(1)),
               CounterOverloadedError);
  c->Increment(5);
  w1.join();
  w2.join();
  EXPECT_EQ(c->stats().overload_rejections, 2u);
  EXPECT_EQ(c->stats().live_nodes, 0u);
  c->Check(5);  // still healthy
}

TEST(CounterResource, AdmissionGateHonoursTheDeadline) {
  auto c = make_counter("hybrid,max_waiters=1,overload=block");
  std::thread w1([&] { c->Check(5); });
  while (c->stats().suspensions < 1) std::this_thread::yield();
  // Over cap AND never released: the gated wait must time out.
  EXPECT_FALSE(c->CheckFor(9, std::chrono::milliseconds(50)));
  EXPECT_EQ(c->stats().overload_rejections, 1u);
  EXPECT_GE(c->stats().timed_out_checks, 1u);
  c->Increment(5);
  w1.join();
  EXPECT_EQ(c->stats().live_nodes, 0u);
}

TEST(CounterResource, AdmissionGateAdmitsWhenCapacityFrees) {
  auto c = make_counter("list,max_waiters=1,overload=block");
  std::atomic<bool> gated_done{false};
  std::thread w1([&] { c->Check(5); });
  while (c->stats().suspensions < 1) std::this_thread::yield();
  std::thread w2([&] {
    c->Check(5);  // naps on the admission gate until capacity frees
    gated_done.store(true, std::memory_order_release);
  });
  while (c->stats().overload_rejections < 1) std::this_thread::yield();
  EXPECT_FALSE(gated_done.load(std::memory_order_acquire));
  c->Increment(5);
  w1.join();
  w2.join();
  EXPECT_TRUE(gated_done.load());
  EXPECT_EQ(c->stats().live_nodes, 0u);
}

// A gated waiter is on no wait list.  When the only parked waiter (a
// timed one, at a higher level) times out and leaves, the plane is
// rearmed as if nobody were armed; the gated waiter then parks at 5.
// It must have armed the plane again, or Increment(5) takes the
// lock-free fast path and never releases it.
void gate_rearms_after_a_timed_leave(const std::string& spec) {
  auto c = make_counter(spec);
  std::thread t1([&] {
    EXPECT_FALSE(c->CheckFor(10, std::chrono::milliseconds(200)));
  });
  while (c->stats().suspensions < 1) std::this_thread::yield();
  std::atomic<bool> t2_done{false};
  std::thread t2([&] {
    try {
      c->Check(5);
    } catch (const CounterPoisonedError&) {
      ADD_FAILURE() << "gated waiter was stranded past Increment(5)";
    }
    t2_done.store(true, std::memory_order_release);
  });
  while (c->stats().overload_rejections < 1) std::this_thread::yield();
  t1.join();  // T2 was gated before T1's deadline passed
  while (c->stats().suspensions < 2) std::this_thread::yield();
  c->Increment(5);
  const auto give_up =
      std::chrono::steady_clock::now() + std::chrono::seconds(2);
  while (!t2_done.load(std::memory_order_acquire) &&
         std::chrono::steady_clock::now() < give_up) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  // A stranded waiter is freed by poison so the thread can be joined.
  if (!t2_done.load()) {
    c->Poison(std::make_exception_ptr(std::runtime_error("stranded")));
  }
  t2.join();
  EXPECT_EQ(c->stats().live_nodes, 0u);
}

TEST(CounterResource, AdmissionGateReArmsTheWordPlane) {
  gate_rearms_after_a_timed_leave("hybrid,max_waiters=1,overload=block");
}

TEST(CounterResource, AdmissionGateReArmsTheStripedPlane) {
  gate_rearms_after_a_timed_leave(
      "sharded:4+hybrid,max_waiters=1,overload=block");
}

// ---------------------------------------------------------------------------
// The overload storm (acceptance criterion): hundreds of waiters
// against a 64-slot wait list, one release.  Under every policy all
// threads must return and none may be left parked.
// ---------------------------------------------------------------------------

void overload_storm(const std::string& spec, bool rejections_expected) {
  auto c = make_counter(spec);
  constexpr int kThreads = 384;
  std::atomic<int> reached{0};
  std::atomic<int> rejected{0};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int i = 0; i < kThreads; ++i) {
    threads.emplace_back([&] {
      try {
        c->Check(1000);
        reached.fetch_add(1, std::memory_order_relaxed);
      } catch (const CounterOverloadedError&) {
        rejected.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  c->Increment(1000);
  for (auto& t : threads) t.join();  // nobody left parked, ever
  EXPECT_EQ(reached.load() + rejected.load(), kThreads);
  if (!rejections_expected) {
    EXPECT_EQ(rejected.load(), 0) << "non-throwing policy threw";
    EXPECT_EQ(reached.load(), kThreads);
  }
  const auto s = c->stats();
  EXPECT_LE(s.max_live_waiters, 64u) << "admission cap breached";
  EXPECT_EQ(s.live_nodes, 0u) << "storm left the wait list dirty";
  c->Check(1000);  // the counter survived the storm
}

TEST(CounterResource, OverloadStormThrow) {
  overload_storm("pooled:64+hybrid,max_waiters=64", true);
}

TEST(CounterResource, OverloadStormBlockLockFreePlane) {
  overload_storm("hybrid,max_waiters=64,overload=block", false);
}

TEST(CounterResource, OverloadStormBlock) {
  overload_storm("list,max_waiters=64,overload=block", false);
}

TEST(CounterResource, OverloadStormHeapPlane) {
  overload_storm("pooled:64+hybrid,max_waiters=64,waitplane=heap:4", true);
}

// ---------------------------------------------------------------------------
// Spec grammar: the resource model round-trips through make_counter
// ---------------------------------------------------------------------------

TEST(CounterResource, SpecRoundTripsResourceOptions) {
  const std::string canonical =
      "sharded:4+pooled:64+hybrid,max_waiters=256,overload=block";
  auto c = make_counter(canonical);
  EXPECT_EQ(c->spec(), canonical);
  EXPECT_EQ(make_counter(c->spec())->spec(), canonical);

  EXPECT_EQ(make_counter("pooled")->spec(), "pooled:64+hybrid");
  EXPECT_EQ(make_counter("pooled:16")->spec(), "pooled:16+hybrid");
  EXPECT_EQ(make_counter("pooled:16+list,max_waiters=8")->spec(),
            "pooled:16+list,max_waiters=8");
  // kThrow is the default and is never printed.
  EXPECT_EQ(make_counter("list,overload=throw")->spec(), "list");
}

TEST(CounterResource, SpecRejectsContradictionsAndMisplacedTokens) {
  // pooled demands a pool to put the nodes in.
  EXPECT_THROW(make_counter("pooled:8+list,pool=0"), std::invalid_argument);
  // pooled is a prefix, not a decorator.
  EXPECT_THROW(make_counter("hybrid+pooled"), std::invalid_argument);
  // and needs at least one node.
  EXPECT_THROW(make_counter("pooled:0+list"), std::invalid_argument);
  // unknown overload mode.
  EXPECT_THROW(make_counter("list,overload=panic"), std::invalid_argument);
}

}  // namespace

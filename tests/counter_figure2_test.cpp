// counter_figure2_test.cpp — step-by-step reproduction of the paper's
// Figure 2 (experiment E6), for EVERY implementation.
//
// Figure 2 traces the internal structure of a counter c through:
//   (a) construction                 — value 0, empty list
//   (b) c.Check(5) by thread T1      — node {level 5, count 1}
//   (c) c.Check(9) by thread T2      — nodes {5,1} -> {9,1}
//   (d) c.Check(5) by thread T3      — nodes {5,2} -> {9,1}
//   (e) c.Increment(7) by T0         — value 7, node {5,2} released
//                                      (condition set), {9,1} remains
//   (f) T1 resumes execution         — node {5,...} count drops to 1
//   (g) T3 resumes execution         — node {5} deallocated; {9,1} left
//
// Since the policy-based refactor the ordered wait list lives in the
// shared engine, so the scenario is a typed suite: every policy must
// draw exactly the figure's (value, [(level, count)]) shape.  Released-but-not-yet-exited waiters
// ((e)-(f)) are scheduler-timed, so the test asserts the stable states
// before (d)->(e) and after (g).  Node/notify accounting that depends
// on the single-list layout stays Counter-only at the bottom.

#include <gtest/gtest.h>

#include <chrono>
#include <string>
#include <thread>
#include <type_traits>

#include "monotonic/core/broadcast_counter.hpp"
#include "monotonic/core/counter.hpp"
#include "monotonic/core/futex_counter.hpp"
#include "monotonic/core/hybrid_counter.hpp"
#include "monotonic/core/spin_counter.hpp"
#include "monotonic/sync/latch.hpp"

namespace monotonic {
namespace {

using namespace std::chrono_literals;

template <typename C>
void wait_until_waiters(C& c, std::size_t total_waiters) {
  for (;;) {
    std::size_t total = 0;
    for (const auto& wl : c.debug_snapshot().wait_levels) {
      total += wl.waiters;
    }
    if (total == total_waiters) return;
    std::this_thread::sleep_for(1ms);
  }
}

template <typename C>
class Figure2 : public ::testing::Test {
 protected:
  C counter_;
};

using Figure2Types =
    ::testing::Types<Counter, SingleCvCounter, FutexCounter, SpinCounter,
                     HybridCounter>;

struct Figure2TypeNames {
  template <typename T>
  static std::string GetName(int) {
    if constexpr (std::is_same_v<T, Counter>) return "list";
    if constexpr (std::is_same_v<T, SingleCvCounter>) return "single_cv";
    if constexpr (std::is_same_v<T, FutexCounter>) return "futex";
    if constexpr (std::is_same_v<T, SpinCounter>) return "spin";
    if constexpr (std::is_same_v<T, HybridCounter>) return "hybrid";
  }
};

TYPED_TEST_SUITE(Figure2, Figure2Types, Figure2TypeNames);

TYPED_TEST(Figure2, FullScenario) {
  auto& c = this->counter_;

  // (a) construction.
  {
    auto snap = c.debug_snapshot();
    EXPECT_EQ(snap.value, 0u);
    EXPECT_TRUE(snap.wait_levels.empty());
  }

  // (b) c.Check(5) by thread T1.
  std::jthread t1([&c] { c.Check(5); });
  wait_until_waiters(c, 1);
  {
    auto snap = c.debug_snapshot();
    EXPECT_EQ(snap.value, 0u);
    ASSERT_EQ(snap.wait_levels.size(), 1u);
    EXPECT_EQ(snap.wait_levels[0].level, 5u);
    EXPECT_EQ(snap.wait_levels[0].waiters, 1u);
  }

  // (c) c.Check(9) by thread T2: appended after the level-5 node.
  std::jthread t2([&c] { c.Check(9); });
  wait_until_waiters(c, 2);
  {
    auto snap = c.debug_snapshot();
    ASSERT_EQ(snap.wait_levels.size(), 2u);
    EXPECT_EQ(snap.wait_levels[0].level, 5u);
    EXPECT_EQ(snap.wait_levels[0].waiters, 1u);
    EXPECT_EQ(snap.wait_levels[1].level, 9u);
    EXPECT_EQ(snap.wait_levels[1].waiters, 1u);
  }

  // (d) c.Check(5) by thread T3: joins the existing level-5 node — no
  // third level entry appears.
  std::jthread t3([&c] { c.Check(5); });
  wait_until_waiters(c, 3);
  {
    auto snap = c.debug_snapshot();
    ASSERT_EQ(snap.wait_levels.size(), 2u);
    EXPECT_EQ(snap.wait_levels[0].level, 5u);
    EXPECT_EQ(snap.wait_levels[0].waiters, 2u);
    EXPECT_EQ(snap.wait_levels[1].level, 9u);
    EXPECT_EQ(snap.wait_levels[1].waiters, 1u);
  }

  // (e) c.Increment(7) by T0: value 7 >= 5, so the level-5 node is
  // unlinked and its signal set; level-9 node remains.
  c.Increment(7);

  // (f)+(g) T1 and T3 resume and the level-5 node is deallocated by
  // whichever of them leaves last.
  t1.join();
  t3.join();
  {
    auto snap = c.debug_snapshot();
    EXPECT_EQ(snap.value, 7u);
    ASSERT_EQ(snap.wait_levels.size(), 1u);
    EXPECT_EQ(snap.wait_levels[0].level, 9u);
    EXPECT_EQ(snap.wait_levels[0].waiters, 1u);
  }

  // Epilogue: release T2 so the counter can be destroyed.
  c.Increment(2);
  t2.join();
  EXPECT_TRUE(c.debug_snapshot().wait_levels.empty());
  EXPECT_EQ(c.stats().live_nodes, 0u);
}

TYPED_TEST(Figure2, WakeupAccountingMatchesScenario) {
  auto& c = this->counter_;
  std::jthread t1([&c] { c.Check(5); });
  std::jthread t2([&c] { c.Check(9); });
  std::jthread t3([&c] { c.Check(5); });
  wait_until_waiters(c, 3);

  c.Increment(7);
  t1.join();
  t3.join();
  EXPECT_EQ(c.stats().wakeups, 2u)
      << "Increment(7) wakes the two level-5 waiters";

  c.Increment(2);
  t2.join();
  auto s = c.stats();
  EXPECT_EQ(s.wakeups, 3u);
  EXPECT_EQ(s.suspensions, 3u);
}

// ---------------------------------------------------------------------
// Node and notify accounting that depends on the single-list layout
// (SingleCv broadcasts per Increment), asserted on the §7 reference
// only.

TEST(Figure2Accounting, NodesAndNotifiesOnReferenceCounter) {
  Counter c;
  std::jthread t1([&c] { c.Check(5); });
  std::jthread t2([&c] { c.Check(9); });
  std::jthread t3([&c] { c.Check(5); });
  wait_until_waiters(c, 3);
  EXPECT_EQ(c.stats().max_live_nodes, 2u)
      << "three waiters must occupy exactly two nodes";

  c.Increment(7);
  t1.join();
  t3.join();
  auto s = c.stats();
  EXPECT_EQ(s.notifies, 1u) << "one notify_all covers both (one per node)";
  EXPECT_EQ(c.stats().live_nodes, 1u);

  c.Increment(2);
  t2.join();
  s = c.stats();
  EXPECT_EQ(s.notifies, 2u);
  EXPECT_EQ(s.nodes_allocated, 2u);
  EXPECT_EQ(s.live_nodes, 0u);
}

}  // namespace
}  // namespace monotonic

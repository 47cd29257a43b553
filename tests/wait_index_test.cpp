// wait_index_test.cpp — structural tests for the sharded level index
// (wait_index.hpp) behind WaitList and CallbackListT.
//
// These drive WaitList / CallbackListT directly (no threads, no
// policies): the §7 contract — ascending release order, released
// prefix exactness, O(live levels) storage under timeouts — must hold
// at every shard count and on both sides of the scan/table crossover,
// so the heaviest tests here are differential: seeded operation
// streams applied to the index and to a std::map reference (the §7
// ordered list's semantics), comparing every observable after every
// step.

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <random>
#include <vector>

#include "monotonic/core/counter_stats.hpp"
#include "monotonic/core/wait_list.hpp"

namespace {

using namespace monotonic;

struct StubSignal {
  void reset() {}
};

using List = WaitList<StubSignal>;
using Node = List::Node;

WaitListOptions heap_options(std::size_t shards) {
  WaitListOptions options;
  options.wait_shards = shards;
  return options;
}

TEST(WaitIndex, ReportsConfiguration) {
  CounterStats stats;
  List list(WaitListOptions{}, stats);
  EXPECT_EQ(list.wait_shard_count(), 1u);
  EXPECT_EQ(stats.snapshot().wait_shard_count, 1u);

  CounterStats heap_stats;
  List heap(heap_options(4), heap_stats);
  EXPECT_EQ(heap.wait_shard_count(), 4u);
  EXPECT_EQ(heap_stats.snapshot().wait_shard_count, 4u);
  // wait_shards = 0 resolves to one shard; the cap clamps.
  CounterStats one_stats;
  List one(heap_options(0), one_stats);
  EXPECT_EQ(one.wait_shard_count(), 1u);
  CounterStats capped_stats;
  List capped(heap_options(kMaxWaitShards + 1), capped_stats);
  EXPECT_EQ(capped.wait_shard_count(), kMaxWaitShards);
}

TEST(WaitIndex, ReleasesAscendingAcrossShards) {
  CounterStats stats;
  List heap(heap_options(4), stats);
  // Arm 100 levels in a scrambled order that hits every shard.
  std::vector<counter_value_t> levels;
  for (counter_value_t l = 1; l <= 100; ++l) levels.push_back(l);
  std::mt19937 rng(7);
  std::shuffle(levels.begin(), levels.end(), rng);
  std::vector<Node*> nodes;
  for (counter_value_t l : levels) nodes.push_back(heap.acquire(l));
  EXPECT_EQ(heap.live_level_count(), 100u);
  EXPECT_EQ(heap.min_level(), 1u);

  std::vector<counter_value_t> released;
  heap.release_prefix(50, [&](Node& node) { released.push_back(node.level); });
  ASSERT_EQ(released.size(), 50u);
  EXPECT_TRUE(std::is_sorted(released.begin(), released.end()));
  EXPECT_EQ(released.front(), 1u);
  EXPECT_EQ(released.back(), 50u);
  EXPECT_EQ(heap.min_level(), 51u);
  EXPECT_EQ(heap.live_level_count(), 50u);

  // Joining an existing level reuses its node; a new one links fresh.
  Node* join = heap.acquire(60);
  EXPECT_EQ(join->waiters, 2u);
  EXPECT_EQ(heap.live_level_count(), 50u);

  std::vector<counter_value_t> aborted;
  heap.abort_all([&](Node& node) {
    EXPECT_TRUE(node.aborted);
    aborted.push_back(node.level);
  });
  ASSERT_EQ(aborted.size(), 50u);
  EXPECT_TRUE(std::is_sorted(aborted.begin(), aborted.end()));
  EXPECT_TRUE(heap.empty());

  for (Node* node : nodes) heap.leave(node);
  heap.leave(join);
  EXPECT_EQ(heap.waiter_count(), 0u);
}

TEST(WaitIndex, BulkDrainCrossoverKeepsOrderAndSurvivors) {
  // A release past detail::kBulkWakeThreshold levels leaves the pop
  // loop for the sort-merge drain (LevelIndex::release): the wake order
  // must stay globally ascending and the surviving entries must still
  // be a fully working index — back-links intact for timed unlinks,
  // joins finding their nodes, later releases correct.
  CounterStats stats;
  List heap(heap_options(5), stats);
  std::vector<counter_value_t> levels;
  for (counter_value_t l = 1; l <= 300; ++l) levels.push_back(l);
  std::mt19937 rng(11);
  std::shuffle(levels.begin(), levels.end(), rng);
  std::vector<Node*> nodes;
  for (counter_value_t l : levels) nodes.push_back(heap.acquire(l));

  std::vector<counter_value_t> released;
  heap.release_prefix(200, [&](Node& node) { released.push_back(node.level); });
  ASSERT_EQ(released.size(), 200u);
  EXPECT_TRUE(std::is_sorted(released.begin(), released.end()));
  EXPECT_EQ(released.front(), 1u);
  EXPECT_EQ(released.back(), 200u);
  EXPECT_EQ(heap.min_level(), 201u);
  EXPECT_EQ(heap.live_level_count(), 100u);

  // The survivors were re-based by discard_prefix: a timed unlink from
  // the middle exercises the heap_pos back-link assertion, and a join
  // must find its node through the hash.
  Node* mid = nullptr;
  for (Node* node : nodes) {
    if (node->level == 250) mid = node;
  }
  ASSERT_NE(mid, nullptr);
  heap.leave(mid);
  EXPECT_EQ(heap.live_level_count(), 99u);
  Node* join = heap.acquire(299);
  EXPECT_EQ(join->waiters, 2u);

  released.clear();
  heap.release_prefix(kNoArmedLevel - 1,
                      [&](Node& node) { released.push_back(node.level); });
  ASSERT_EQ(released.size(), 99u);
  EXPECT_TRUE(std::is_sorted(released.begin(), released.end()));
  EXPECT_EQ(released.front(), 201u);
  EXPECT_TRUE(heap.empty());

  for (Node* node : nodes) {
    if (node != mid) heap.leave(node);
  }
  heap.leave(join);
  EXPECT_EQ(heap.waiter_count(), 0u);
}

TEST(WaitIndex, RadixDrainSortsLargeShards) {
  // Past kRadixMinSort (4096) entries per shard the bulk drain's sort
  // switches from introsort to the LSD radix pass — cover it with
  // ~10k-entry shards, including a partial release so the radix-sorted
  // survivors stay a working index.
  CounterStats stats;
  List heap(heap_options(2), stats);
  std::vector<counter_value_t> levels;
  for (counter_value_t l = 1; l <= 20'000; ++l) levels.push_back(l);
  std::mt19937 rng(17);
  std::shuffle(levels.begin(), levels.end(), rng);
  std::vector<Node*> nodes;
  for (counter_value_t l : levels) nodes.push_back(heap.acquire(l));

  std::vector<counter_value_t> released;
  heap.release_prefix(15'000,
                      [&](Node& node) { released.push_back(node.level); });
  ASSERT_EQ(released.size(), 15'000u);
  EXPECT_TRUE(std::is_sorted(released.begin(), released.end()));
  EXPECT_EQ(released.front(), 1u);
  EXPECT_EQ(released.back(), 15'000u);
  EXPECT_EQ(heap.min_level(), 15'001u);

  released.clear();
  heap.abort_all([&](Node& node) { released.push_back(node.level); });
  ASSERT_EQ(released.size(), 5'000u);
  EXPECT_TRUE(std::is_sorted(released.begin(), released.end()));
  EXPECT_EQ(released.front(), 15'001u);
  EXPECT_TRUE(heap.empty());

  for (Node* node : nodes) heap.leave(node);
  EXPECT_EQ(heap.waiter_count(), 0u);
}

TEST(WaitIndex, CallbackIndexBulkDetachKeepsLevelOrder) {
  // Same crossover for the callback plane: a detach_reached past the
  // threshold must still run callbacks in global level order.
  CallbackList callbacks(4);
  std::vector<counter_value_t> levels;
  for (counter_value_t l = 1; l <= 250; ++l) levels.push_back(l);
  std::mt19937 rng(13);
  std::shuffle(levels.begin(), levels.end(), rng);
  std::vector<counter_value_t> ran;
  for (counter_value_t l : levels) {
    callbacks.insert(l, [&ran, l] { ran.push_back(l); });
  }

  CallbackList::run_chain(callbacks.detach_reached(180));
  ASSERT_EQ(ran.size(), 180u);
  EXPECT_TRUE(std::is_sorted(ran.begin(), ran.end()));
  EXPECT_EQ(ran.front(), 1u);
  EXPECT_EQ(ran.back(), 180u);
  EXPECT_EQ(callbacks.min_level(), 181u);

  std::vector<counter_value_t> rest;
  CallbackList::Node* chain = callbacks.detach_all();
  for (CallbackList::Node* n = chain; n != nullptr; n = n->next) {
    rest.push_back(n->level);
  }
  EXPECT_TRUE(callbacks.empty());
  ASSERT_EQ(rest.size(), 70u);
  EXPECT_TRUE(std::is_sorted(rest.begin(), rest.end()));
  CallbackList::run_chain(chain);
}

TEST(WaitIndex, TimedOutWaiterUnlinksFromTheMiddle) {
  CounterStats stats;
  List heap(heap_options(2), stats);
  Node* a = heap.acquire(10);
  Node* b = heap.acquire(20);
  Node* c = heap.acquire(30);
  Node* d = heap.acquire(40);
  // b "times out": last waiter at its level, node still linked.
  heap.leave(b);
  EXPECT_EQ(heap.live_level_count(), 3u);
  std::vector<counter_value_t> released;
  heap.release_prefix(kNoArmedLevel - 1,
                      [&](Node& node) { released.push_back(node.level); });
  EXPECT_EQ(released, (std::vector<counter_value_t>{10, 30, 40}));
  heap.leave(a);
  heap.leave(c);
  heap.leave(d);
  EXPECT_TRUE(heap.empty());
}

TEST(WaitIndex, AdmissionBoundsUseTheShardHash) {
  CounterStats stats;
  WaitListOptions options = heap_options(2);
  options.max_waiters = 2;
  List heap(options, stats);
  Node* a = heap.acquire(1);
  Node* b = heap.acquire(2);
  // Levels 1 and 2 hash to different shards; the bound counts both.
  EXPECT_TRUE(heap.admission_would_exceed());
  heap.leave(a);
  EXPECT_FALSE(heap.admission_would_exceed());
  heap.leave(b);
  EXPECT_TRUE(heap.empty());
}

TEST(WaitIndex, PoolRetainsAtMostTheRetentionCap) {
  // Free more nodes than the pool keeps; acquiring as many fresh levels
  // again can reuse only the retained ones.
  CounterStats stats;
  List list(WaitListOptions{}, stats);
  constexpr std::size_t kLevels = List::kPoolRetention + 8;
  for (std::size_t round = 0; round < 2; ++round) {
    std::vector<Node*> nodes;
    for (std::size_t i = 1; i <= kLevels; ++i) {
      nodes.push_back(list.acquire(round * kLevels + i));
    }
    for (Node* node : nodes) list.leave(node);
  }
  EXPECT_EQ(stats.snapshot().pool_hits, List::kPoolRetention);
}

TEST(WaitIndex, SnapshotIsAscending) {
  CounterStats stats;
  List heap(heap_options(3), stats);
  std::vector<Node*> nodes;
  for (counter_value_t l : {17, 3, 29, 11, 5}) nodes.push_back(heap.acquire(l));
  std::vector<DebugWaitLevel> snap;
  heap.snapshot_into(snap);
  ASSERT_EQ(snap.size(), 5u);
  for (std::size_t i = 1; i < snap.size(); ++i) {
    EXPECT_LT(snap[i - 1].level, snap[i].level);
  }
  heap.release_prefix(kNoArmedLevel - 1, [](Node&) {});
  for (Node* node : nodes) heap.leave(node);
}

TEST(WaitIndex, RecordsDepthAndBulkWakes) {
  CounterStats stats;
  List heap(heap_options(1), stats);
  std::vector<Node*> nodes;
  for (counter_value_t l = 1; l <= 15; ++l) nodes.push_back(heap.acquire(l));
  // 15 nodes in one shard: a full 4-deep binary heap.
  EXPECT_EQ(stats.snapshot().index_depth, 4u);
  heap.release_prefix(15, [](Node&) {});
  EXPECT_EQ(stats.snapshot().bulk_wakes, 1u);  // one pass, 15 levels
  for (Node* node : nodes) heap.leave(node);

  // A single-level release is not a bulk wake.
  Node* solo = heap.acquire(99);
  heap.release_prefix(99, [](Node&) {});
  heap.leave(solo);
  EXPECT_EQ(stats.snapshot().bulk_wakes, 1u);
}

// The differential test: one seeded operation stream applied to the
// index and to a std::map reference (level -> waiters, the §7 ordered
// list's semantics), every observable compared after every step.  One
// shard crosses the scan/table threshold both ways (levels spread over
// 40 values); three shards add cross-shard min-scans.
TEST(WaitIndex, DifferentialAgainstOrderedReference) {
  for (std::size_t shards : {std::size_t{1}, std::size_t{3}}) {
    for (std::uint32_t seed : {1u, 2u, 3u, 4u, 5u}) {
      CounterStats heap_stats;
      List heap(heap_options(shards), heap_stats);
      std::map<counter_value_t, std::size_t> model;  // level -> waiters
      std::mt19937 rng(seed);
      // Every logical waiter: its node, and whether it has left.
      std::vector<Node*> heap_nodes;
      std::vector<bool> left;
      counter_value_t value = 0;  // released levels stay <= value

      const auto compare = [&](const char* what) {
        std::size_t waiters = 0;
        for (const auto& [level, count] : model) waiters += count;
        EXPECT_EQ(model.empty() ? kNoArmedLevel : model.begin()->first,
                  heap.min_level())
            << what;
        EXPECT_EQ(waiters, heap.waiter_count()) << what;
        EXPECT_EQ(model.size(), heap.live_level_count()) << what;
        std::vector<DebugWaitLevel> hs;
        heap.snapshot_into(hs);
        ASSERT_EQ(model.size(), hs.size()) << what;
        std::size_t i = 0;
        for (const auto& [level, count] : model) {
          EXPECT_EQ(level, hs[i].level) << what;
          EXPECT_EQ(count, hs[i].waiters) << what;
          ++i;
        }
      };

      for (int step = 0; step < 400; ++step) {
        const int op = static_cast<int>(rng() % 100);
        if (op < 55) {  // acquire a (possibly shared) level above value
          const counter_value_t level = value + 1 + rng() % 40;
          heap_nodes.push_back(heap.acquire(level));
          ++model[level];
          left.push_back(false);
        } else if (op < 80) {  // a random live waiter leaves (timeout)
          std::vector<std::size_t> live;
          for (std::size_t i = 0; i < left.size(); ++i) {
            if (!left[i]) live.push_back(i);
          }
          if (live.empty()) continue;
          const std::size_t pick = live[rng() % live.size()];
          const counter_value_t level = heap_nodes[pick]->level;
          heap.leave(heap_nodes[pick]);
          if (--model[level] == 0) model.erase(level);
          left[pick] = true;
        } else {  // increment: release the prefix from both
          value += 1 + rng() % 30;
          std::vector<counter_value_t> mrel, hrel;
          while (!model.empty() && model.begin()->first <= value) {
            mrel.push_back(model.begin()->first);
            model.erase(model.begin());
          }
          heap.release_prefix(value,
                              [&](Node& node) { hrel.push_back(node.level); });
          EXPECT_EQ(mrel, hrel) << "release order diverged, seed " << seed;
          // Released waiters wake and leave.
          for (std::size_t i = 0; i < left.size(); ++i) {
            if (left[i] || heap_nodes[i]->level > value) continue;
            EXPECT_TRUE(heap_nodes[i]->released);
            heap.leave(heap_nodes[i]);
            left[i] = true;
          }
        }
        compare("after step");
      }
      // Drain: abort everything, then every survivor leaves.
      std::vector<counter_value_t> mabort, habort;
      for (const auto& [level, count] : model) mabort.push_back(level);
      heap.abort_all([&](Node& node) { habort.push_back(node.level); });
      EXPECT_EQ(mabort, habort);
      for (std::size_t i = 0; i < left.size(); ++i) {
        if (left[i]) continue;
        EXPECT_TRUE(heap_nodes[i]->aborted);
        heap.leave(heap_nodes[i]);
      }
      EXPECT_TRUE(heap.empty());
      EXPECT_EQ(heap.waiter_count(), 0u);
    }
  }
}

// The scan/table crossover: a shard finds levels by scanning its heap
// array up to eight live levels and builds the level table when a
// ninth links.  Walk a one-shard index up through 12 levels and back
// down, joining below and above the threshold, unlinking a timed
// waiter from the middle, then a partial and a full bulk drain and a
// re-arm after the full one — checking `find` (through joins) and the
// ascending release order against a std::map reference at each step.
TEST(WaitIndex, ScanToTableCrossover) {
  CounterStats stats;
  List index(heap_options(1), stats);
  std::map<counter_value_t, std::vector<Node*>> model;  // level -> waiters
  const auto arm = [&](counter_value_t level) {
    Node* node = index.acquire(level);
    auto& waiters = model[level];
    // A join must find the level's existing node.
    if (!waiters.empty()) {
      EXPECT_EQ(node, waiters.front()) << level;
    }
    waiters.push_back(node);
    EXPECT_EQ(node->waiters, waiters.size()) << level;
  };
  const auto expect_matches = [&](const char* what) {
    EXPECT_EQ(index.live_level_count(), model.size()) << what;
    EXPECT_EQ(index.min_level(),
              model.empty() ? kNoArmedLevel : model.begin()->first)
        << what;
    std::vector<DebugWaitLevel> snap;
    index.snapshot_into(snap);
    ASSERT_EQ(snap.size(), model.size()) << what;
    std::size_t i = 0;
    for (const auto& [level, waiters] : model) {
      EXPECT_EQ(snap[i].level, level) << what;
      EXPECT_EQ(snap[i].waiters, waiters.size()) << what;
      ++i;
    }
  };
  const auto release = [&](counter_value_t value) {
    std::vector<counter_value_t> got, want;
    index.release_prefix(value, [&](Node& node) { got.push_back(node.level); });
    while (!model.empty() && model.begin()->first <= value) {
      want.push_back(model.begin()->first);
      for (Node* node : model.begin()->second) index.leave(node);
      model.erase(model.begin());
    }
    EXPECT_EQ(got, want) << "release to " << value;
  };

  // Up through 12 distinct levels, scrambled, joining as we go: joins
  // at 3 levels run while scanning, the one at 110 after the table.
  const counter_value_t up[] = {140, 110, 170, 120, 160, 130, 150, 180,
                                190, 200, 100, 210};
  for (std::size_t i = 0; i < std::size(up); ++i) {
    arm(up[i]);
    if (i == 2) {
      arm(110);
      arm(140);
      arm(170);
    }
    if (i == 10) arm(110);
    expect_matches("arming");
  }
  ASSERT_EQ(model.size(), 12u);

  // A timed waiter at a middle level leaves: its node unlinks.
  index.leave(model[150].back());
  model.erase(150);
  expect_matches("timed unlink");

  // Back down below the threshold by timeouts, then up again: the
  // table (still built) keeps finding levels.
  for (counter_value_t level : {210, 200, 190, 180}) {
    for (Node* node : model[level]) index.leave(node);
    model.erase(level);
    expect_matches("timing out");
  }
  ASSERT_EQ(model.size(), 7u);
  arm(120);  // join below the threshold
  arm(185);
  arm(195);
  arm(205);  // 10 levels again
  arm(195);  // join above it
  expect_matches("re-arming");

  // Partial release: 100..140 (5 levels) go, ascending.
  release(140);
  expect_matches("partial release");
  arm(175);
  arm(160);
  expect_matches("after partial");

  // A release of more than kBulkWakeThreshold levels finishes on the
  // sort-merge path: 106 levels partially (100 survive), then the
  // remaining 100 in full.
  for (counter_value_t level = 1000; level < 1200; ++level) arm(level);
  release(1099);
  expect_matches("partial bulk drain");
  index.leave(model[1150].back());  // survivors' back-links re-based
  model.erase(1150);
  arm(1160);
  expect_matches("after partial bulk drain");
  release(kNoArmedLevel - 1);
  expect_matches("full bulk drain");
  EXPECT_TRUE(index.empty());

  // Re-arm after the full drain dropped the table: scanning again,
  // then across the threshold once more.
  for (counter_value_t level : {30, 10, 20, 10}) arm(level);
  expect_matches("re-arm after full drain");
  for (counter_value_t level = 40; level <= 100; level += 10) arm(level);
  arm(20);
  expect_matches("re-crossed");
  release(kNoArmedLevel - 1);
  EXPECT_TRUE(index.empty());
  EXPECT_EQ(index.waiter_count(), 0u);
}

// ---- CallbackListT over the level index -----------------------------

TEST(WaitIndex, CallbackIndexDetachesAscendingChains) {
  CallbackList callbacks(3);
  std::vector<counter_value_t> ran;
  for (counter_value_t l : {25, 5, 15, 35, 10, 5}) {
    callbacks.insert(l, [&ran, l] { ran.push_back(l); });
  }
  EXPECT_FALSE(callbacks.empty());
  EXPECT_EQ(callbacks.min_level(), 5u);

  std::vector<counter_value_t> snap;
  callbacks.snapshot_into(snap);
  EXPECT_EQ(snap, (std::vector<counter_value_t>{5, 10, 15, 25, 35}));

  CallbackList::run_chain(callbacks.detach_reached(15));
  // Both level-5 entries ran (registration order), then 10, then 15.
  EXPECT_EQ(ran, (std::vector<counter_value_t>{5, 5, 10, 15}));
  EXPECT_EQ(callbacks.min_level(), 25u);

  std::vector<counter_value_t> errored;
  auto cause = std::make_exception_ptr(std::runtime_error("producer died"));
  CallbackList::Node* rest = callbacks.detach_all();
  EXPECT_TRUE(callbacks.empty());
  for (CallbackList::Node* n = rest; n != nullptr; n = n->next) {
    errored.push_back(n->level);
  }
  EXPECT_EQ(errored, (std::vector<counter_value_t>{25, 35}));
  CallbackList::run_chain_error(rest, cause);
}

TEST(WaitIndex, CallbackIndexDropsUnreachedAtDestruction) {
  // Covers the destructor sweep over every shard.
  CallbackList callbacks(2);
  for (counter_value_t l : {8, 2, 4}) {
    callbacks.insert(l, [] { FAIL() << "unreached callback must not run"; });
  }
}

}  // namespace

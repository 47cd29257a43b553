// counter_spec_test.cpp — the make_counter(spec) factory grammar.
//
// Every supported spec must round-trip: make_counter(spec)->spec()
// yields the canonical form, and feeding the canonical form back in
// reproduces it (a fixed point).  Behavior is spot-checked through the
// type-erased interface so a wrong wiring of a decorator layer (e.g.
// batching that never flushes) fails here rather than in a bench.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "monotonic/core/any_counter.hpp"
#include "monotonic/core/shared_counter.hpp"

#if !defined(_WIN32)
#include <unistd.h>
#endif

namespace monotonic {
namespace {

using namespace std::chrono_literals;

// ---------------------------------------------------------------------
// Canonicalization: input spec -> expected canonical spec() string.

struct SpecCase {
  const char* input;
  const char* canonical;
};

class SpecRoundTrip : public ::testing::TestWithParam<SpecCase> {};

TEST_P(SpecRoundTrip, CanonicalFormIsAFixedPoint) {
  const auto p = GetParam();
  auto c = make_counter(p.input);
  EXPECT_EQ(c->spec(), p.canonical);

  // Feeding the canonical spec back in must be stable.
  auto c2 = make_counter(c->spec());
  EXPECT_EQ(c2->spec(), p.canonical);
  EXPECT_EQ(c2->kind(), c->kind());
}

INSTANTIATE_TEST_SUITE_P(
    Grammar, SpecRoundTrip,
    ::testing::Values(
        // Bare kinds.
        SpecCase{"list", "list"}, SpecCase{"single-cv", "single-cv"},
        SpecCase{"futex", "futex"}, SpecCase{"spin", "spin"},
        SpecCase{"hybrid", "hybrid"},
        // Pooling options fold onto the named kinds.
        SpecCase{"list-nopool", "list-nopool"},
        SpecCase{"list,pool=0", "list-nopool"},
        SpecCase{"list-nopool,pool=1", "list"},
        SpecCase{"list,pool=1", "list"},
        // Whitespace is insignificant.
        SpecCase{" hybrid , pool_size = 64 ", "hybrid"},
        // Decorators, defaults elided.
        SpecCase{"hybrid+traced", "hybrid+traced"},
        SpecCase{"hybrid+batching", "hybrid+batching"},
        SpecCase{"hybrid+batching,batch=64", "hybrid+batching"},
        SpecCase{"hybrid+batching,batch=16", "hybrid+batching,batch=16"},
        // Stacked layers keep their order.
        SpecCase{"futex+batching,batch=8+traced",
                 "futex+batching,batch=8+traced"},
        // Removed knobs still parse (server state files hold raw
        // specs) and fold away: overload=spin waits like block,
        // max_levels=L becomes max_waiters=min(W, L), pool_size=N is
        // ignored and a broadcast layer is dropped.
        SpecCase{"hybrid,overload=spin", "hybrid,overload=block"},
        SpecCase{"list,max_levels=4", "list,max_waiters=4"},
        SpecCase{"list,max_waiters=8,max_levels=4", "list,max_waiters=4"},
        SpecCase{"list,max_levels=16,max_waiters=8", "list,max_waiters=8"},
        SpecCase{"list,max_levels=0", "list"},
        SpecCase{"list,pool_size=8", "list"},
        SpecCase{"hybrid,pool_size=0", "hybrid"},
        SpecCase{"list+broadcast", "list"},
        SpecCase{"list+broadcast,shards=2", "list"},
        SpecCase{"list,pool=0+traced+broadcast,shards=2",
                 "list-nopool+traced"},
        SpecCase{"hybrid+broadcast+batching,batch=8",
                 "hybrid+batching,batch=8"},
        // Sharded value plane: bare "sharded" means sharded+hybrid; an
        // explicit stripe count always prints, the auto count never
        // does (canonical specs are machine-independent).
        SpecCase{"sharded", "sharded+hybrid"},
        SpecCase{"sharded+hybrid", "sharded+hybrid"},
        SpecCase{"sharded+list", "sharded+list"},
        SpecCase{"sharded+single-cv", "sharded+single-cv"},
        SpecCase{"sharded:8+hybrid", "sharded:8+hybrid"},
        SpecCase{"sharded:4+futex", "sharded:4+futex"},
        SpecCase{"sharded:1+spin", "sharded:1+spin"},
        SpecCase{"sharded+list,pool=0", "sharded+list-nopool"},
        SpecCase{"sharded:2+hybrid+traced", "sharded:2+hybrid+traced"},
        SpecCase{"sharded+hybrid+batching,batch=16",
                 "sharded+hybrid+batching,batch=16"},
        // Wait index shards: bare waitplane=list|heap mean the default
        // one shard and never print (recorded specs still name them);
        // an explicit shard count always prints (mirrors the sharded
        // prefix).
        SpecCase{"hybrid,waitplane=list", "hybrid"},
        SpecCase{"hybrid,waitplane=heap", "hybrid"},
        SpecCase{"hybrid,waitplane=heap:4", "hybrid,waitplane=heap:4"},
        SpecCase{"list,pool=0,waitplane=heap:2",
                 "list-nopool,waitplane=heap:2"},
        SpecCase{"sharded:2+hybrid,waitplane=heap:4+traced",
                 "sharded:2+hybrid,waitplane=heap:4+traced"},
        SpecCase{"pooled:16+futex,waitplane=heap", "pooled:16+futex"},
        // Completion executor: inline is the default and never prints;
        // pool always prints with its explicit worker count (bare
        // "pool" means one worker).
        SpecCase{"hybrid,executor=inline", "hybrid"},
        SpecCase{"hybrid,executor=pool", "hybrid,executor=pool:1"},
        SpecCase{"hybrid,executor=pool:1", "hybrid,executor=pool:1"},
        SpecCase{"hybrid,executor=pool:2", "hybrid,executor=pool:2"},
        SpecCase{"list,pool=0,executor=pool:4",
                 "list-nopool,executor=pool:4"},
        SpecCase{"hybrid,waitplane=heap:4,executor=pool:2",
                 "hybrid,waitplane=heap:4,executor=pool:2"},
        SpecCase{"sharded:2+hybrid,executor=pool+traced",
                 "sharded:2+hybrid,executor=pool:1+traced"}));

// Every enumerated kind round-trips through its kind string.
TEST(SpecFactory, EveryKindRoundTrips) {
  for (CounterKind kind : all_counter_kinds()) {
    auto by_kind = make_counter(kind);
    EXPECT_EQ(by_kind->kind(), kind);
    EXPECT_EQ(by_kind->spec(), to_string(kind));
    auto by_spec = make_counter(to_string(kind));
    EXPECT_EQ(by_spec->kind(), kind);
    EXPECT_EQ(by_spec->spec(), to_string(kind));
  }
}

// ---------------------------------------------------------------------
// Malformed specs are rejected with invalid_argument (MC_REQUIRE).

class SpecRejects : public ::testing::TestWithParam<const char*> {};

TEST_P(SpecRejects, ThrowsInvalidArgument) {
  EXPECT_THROW((void)make_counter(std::string_view(GetParam())),
               std::invalid_argument);
}

INSTANTIATE_TEST_SUITE_P(
    Grammar, SpecRejects,
    ::testing::Values("", "bogus", "list+bogus", "list,bogus=1",
                      "list,pool", "list,pool=x", "list+batching,shards=2",
                      "list+broadcast,batch=2", "list+broadcast,shards=0",
                      "list+", "+traced",
                      // Duplicate decorators and misplaced/malformed
                      // sharded prefixes.
                      "hybrid+traced+traced", "list+batching+batching",
                      "list+broadcast+traced+broadcast", "hybrid+sharded",
                      "list+sharded:4", "sharded:0+hybrid",
                      "sharded:x+hybrid", "sharded:+hybrid",
                      "sharded,stripes=4+hybrid",
                      // waitplane: the list has no shard count, and the
                      // value must be a known plane.
                      "hybrid,waitplane=list:2", "hybrid,waitplane=bogus",
                      "hybrid,waitplane=heap:0", "hybrid,waitplane=heap:x",
                      "hybrid,waitplane=heap:65",
                      "hybrid,waitplane=",
                      // executor: value must be inline or pool[:N>=1].
                      "hybrid,executor=bogus", "hybrid,executor=pool:0",
                      "hybrid,executor=pool:x", "hybrid,executor="));

// Cross-process specs: the name grammar is POSIX shm's, and every
// rejection must name the bad token like the rest of the grammar.
INSTANTIATE_TEST_SUITE_P(
    SharedNames, SpecRejects,
    ::testing::Values("shared:",            // empty name
                      "shared:jobs",        // missing leading '/'
                      "shared:/",           // nothing after the slash
                      "shared:/a/b",        // embedded slash
                      "shared:/name,bogus=1", "shared:/name,detect=x",
                      "shared:/name,detect=0", "shared:/name,detect",
                      // Only the redundant '+futex' may follow; shared
                      // counters take no decorators.
                      "shared:/name+traced", "shared:/name+batching"));

// Satellite requirement: a rejected spec's message names the token
// that caused the rejection, not just "bad spec".
TEST(SpecRejects, MessagesNameTheBadToken) {
  const auto message_of = [](const char* spec) {
    try {
      (void)make_counter(std::string_view(spec));
    } catch (const std::invalid_argument& e) {
      return std::string(e.what());
    }
    ADD_FAILURE() << "spec was accepted: " << spec;
    return std::string();
  };
  EXPECT_NE(message_of("hybrid+traced+traced").find("duplicate"),
            std::string::npos);
  EXPECT_NE(message_of("hybrid+traced+traced").find("'traced'"),
            std::string::npos);
  EXPECT_NE(message_of("hybrid+tarced").find("'tarced'"), std::string::npos);
  EXPECT_NE(message_of("bogus").find("'bogus'"), std::string::npos);
  EXPECT_NE(message_of("hybrid+sharded").find("'sharded'"),
            std::string::npos);
  EXPECT_NE(message_of("list,bogus=1").find("'bogus'"), std::string::npos);
  // 'list' never sharded; the message points at the heap form.
  EXPECT_NE(message_of("hybrid,waitplane=list:2").find("waitplane=heap"),
            std::string::npos);
  EXPECT_NE(message_of("hybrid,waitplane=bogus").find("waitplane"),
            std::string::npos);
  // shared: names — the malformed part of the name is quoted back.
  EXPECT_NE(message_of("shared:").find("empty"), std::string::npos);
  EXPECT_NE(message_of("shared:jobs").find("'jobs'"), std::string::npos);
  EXPECT_NE(message_of("shared:jobs").find("start with '/'"),
            std::string::npos);
  EXPECT_NE(message_of("shared:/a/b").find("'/a/b'"), std::string::npos);
  const std::string oversized = "shared:/" + std::string(300, 'x');
  EXPECT_NE(message_of(oversized.c_str()).find("NAME_MAX"),
            std::string::npos);
  EXPECT_NE(message_of("shared:/name+traced").find("'traced'"),
            std::string::npos);
  EXPECT_NE(message_of("shared:/name,bogus=1").find("'bogus'"),
            std::string::npos);
}

#if !defined(_WIN32)

// ---------------------------------------------------------------------
// 'shared:' behavior through the factory (cross-process wiring proper
// is exercised by shared_counter_test.cpp; this covers the spec seam).

TEST(SpecShared, CanonicalFormRoundTripsAndDropsRedundantFutex) {
  const std::string name = "/mc-spec-" + std::to_string(::getpid());
  SharedCounter::Unlink(name);
  {
    auto c = make_counter("shared:" + name + "+futex");
    EXPECT_EQ(c->kind(), CounterKind::kShared);
    // '+futex' is redundant (the shared wait plane IS the futex word)
    // and canonicalizes away.
    EXPECT_EQ(c->spec(), "shared:" + name);
    c->Increment(2);
    EXPECT_TRUE(c->CheckFor(2, 0ms));

    // Round-tripping the canonical spec attaches to the SAME segment.
    auto again = make_counter(c->spec());
    EXPECT_EQ(again->spec(), c->spec());
    EXPECT_EQ(again->debug_value(), 2u);
    EXPECT_EQ(again->stats().epoch, 1u);

    // Non-default options print; defaults do not.
    auto tuned = make_counter("shared:" + name + ",detect=250,stale=500");
    EXPECT_EQ(tuned->spec(), "shared:" + name + ",detect=250,stale=500");
  }
  SharedCounter::Unlink(name);
}

TEST(SpecShared, BareKindNeedsAName) {
  EXPECT_THROW((void)make_counter(CounterKind::kShared),
               std::invalid_argument);
}

#endif  // !_WIN32

// ---------------------------------------------------------------------
// Behavior through the erased interface, per composed spec.

void exercise(const std::string& spec) {
  SCOPED_TRACE(spec);
  auto c = make_counter(spec);

  // Timed probe below the level fails fast, then an increment lands.
  EXPECT_FALSE(c->CheckFor(3, 0ms));
  std::atomic<bool> fired{false};
  c->OnReach(3, [&fired] { fired.store(true); });
  c->Increment(2);
  c->Increment(1);
  EXPECT_TRUE(c->CheckFor(3, 0ms));
  c->Check(3);
  EXPECT_TRUE(fired.load());
  EXPECT_EQ(c->debug_value(), 3u);

  // A parked waiter is woken through however many layers the spec has.
  std::jthread waiter([&c] { c->Check(5); });
  std::this_thread::sleep_for(1ms);
  c->Increment(2);
  waiter.join();
  EXPECT_TRUE(c->debug_snapshot().wait_levels.empty());
  EXPECT_GE(c->stats().increments, 3u);
}

TEST(SpecBehavior, ComposedSpecsIncrementAndWake) {
  for (const char* spec :
       {"list", "list-nopool", "single-cv", "futex", "spin", "hybrid",
        "hybrid+traced", "list+batching,batch=2",
        "hybrid+broadcast,shards=2", "futex+batching,batch=2+traced",
        "list+traced+broadcast,shards=2", "sharded", "sharded:4+hybrid",
        "sharded+list", "sharded:2+futex", "sharded:2+hybrid+traced",
        "hybrid,waitplane=heap", "list,waitplane=heap:2",
        "pooled:8+futex,waitplane=heap:3",
        "sharded:2+hybrid,waitplane=heap:4+traced"}) {
    exercise(spec);
  }
}

// Wait-index metadata flows through the erased interface the same way
// stripe metadata does: wait_shard_count reports the shard count, and
// default counters report 1.
TEST(SpecBehavior, HeapPlaneSpecsExposeWaitShardMetadata) {
  auto heap = make_counter("hybrid,waitplane=heap:4");
  EXPECT_EQ(heap->stats().wait_shard_count, 4u);

  // Parking a waiter exercises the index; the depth high-water mark
  // and shard count surface through stats().
  std::jthread waiter([&heap] { heap->Check(2); });
  while (heap->stats().live_nodes == 0) std::this_thread::yield();
  heap->Increment(2);
  waiter.join();
#if MONOTONIC_ENABLE_STATS
  EXPECT_GE(heap->stats().index_depth, 1u);
#endif

  auto list = make_counter("hybrid");
  EXPECT_EQ(list->stats().wait_shard_count, 1u);
  EXPECT_EQ(list->stats().index_depth, 0u);

  // Auto shard count: at least one, resolved at construction.
  auto auto_heap = make_counter("list,waitplane=heap");
  EXPECT_GE(auto_heap->stats().wait_shard_count, 1u);
}

// Stripe metadata flows through the erased interface: stripe_count()
// and the stats snapshot agree, and unsharded counters report 1.
TEST(SpecBehavior, ShardedSpecsExposeStripeMetadata) {
  auto sharded = make_counter("sharded:4+hybrid");
  EXPECT_EQ(sharded->stripe_count(), 4u);
  EXPECT_EQ(sharded->stats().stripe_count, 4u);
  sharded->Increment(1);  // no waiters → private-stripe fast path
  EXPECT_EQ(sharded->debug_value(), 1u);
  EXPECT_GE(sharded->stats().fast_path_increments, 1u);

  auto plain = make_counter("hybrid");
  EXPECT_EQ(plain->stripe_count(), 1u);
  EXPECT_EQ(plain->stats().stripe_count, 1u);

  // Auto stripe count: at least one, and consistent across the surface.
  auto auto_sharded = make_counter("sharded");
  EXPECT_GE(auto_sharded->stripe_count(), 1u);
  EXPECT_EQ(auto_sharded->stripe_count(), auto_sharded->stats().stripe_count);
}

// Batching really batches: increments below the batch threshold stay
// pending until a flush point (a Check-family call) forces them down.
TEST(SpecBehavior, BatchingDefersUntilFlush) {
  auto c = make_counter("list+batching,batch=100");
  for (int i = 0; i < 99; ++i) c->Increment(1);
  // A timed probe flushes before sampling, so the 99 pending land now.
  EXPECT_TRUE(c->CheckFor(99, 0ms));
  EXPECT_EQ(c->debug_value(), 99u);
  c->Increment(1);  // 1 pending again
  c->Check(100);    // flush + wait
  EXPECT_EQ(c->debug_value(), 100u);
}

// A recorded broadcast layer folds to the counter beneath it, which
// held the full value all along.
TEST(SpecBehavior, BroadcastSpecFoldsToItsInnerCounter) {
  auto c = make_counter("list+broadcast,shards=3");
  EXPECT_EQ(c->spec(), "list");
  c->Increment(7);
  EXPECT_EQ(c->debug_value(), 7u);
  EXPECT_EQ(c->stats().increments, 1u);
  c->Check(7);
  c->Reset();
  EXPECT_EQ(c->debug_value(), 0u);
}

}  // namespace
}  // namespace monotonic

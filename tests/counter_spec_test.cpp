// counter_spec_test.cpp — the make_counter(spec) factory grammar.
//
// Every supported spec must round-trip: make_counter(spec)->spec()
// yields the canonical form, and feeding the canonical form back in
// reproduces it (a fixed point).  Removed layers (+traced, +batching,
// +broadcast) still parse, because server state files hold raw specs,
// and are dropped; the compatibility table pins which specs parse and
// which token each refusal names.  Behavior is spot-checked through the
// type-erased interface, so a spec whose Increment stops releasing its
// waiters fails here rather than in a bench.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <filesystem>
#include <functional>
#include <iterator>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "monotonic/core/any_counter.hpp"
#include "monotonic/core/completion.hpp"
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
        // Removed knobs still parse (server state files hold raw
        // specs) and fold away: overload=spin waits like block,
        // max_levels=L becomes max_waiters=min(W, L), pool_size=N is
        // ignored and a traced, batching or broadcast layer is dropped.
        SpecCase{"hybrid+traced", "hybrid"},
        SpecCase{"hybrid+traced,x=1", "hybrid"},
        SpecCase{"hybrid+batching", "hybrid"},
        SpecCase{"hybrid+batching,batch=64", "hybrid"},
        SpecCase{"hybrid+batching,batch=16", "hybrid"},
        SpecCase{"futex+batching,batch=8+traced", "futex"},
        SpecCase{"hybrid,overload=spin", "hybrid,overload=block"},
        SpecCase{"list,max_levels=4", "list,max_waiters=4"},
        SpecCase{"list,max_waiters=8,max_levels=4", "list,max_waiters=4"},
        SpecCase{"list,max_levels=16,max_waiters=8", "list,max_waiters=8"},
        SpecCase{"list,max_levels=0", "list"},
        SpecCase{"list,pool_size=8", "list"},
        SpecCase{"hybrid,pool_size=0", "hybrid"},
        SpecCase{"list+broadcast", "list"},
        SpecCase{"list+broadcast,shards=2", "list"},
        SpecCase{"list,pool=0+traced+broadcast,shards=2", "list-nopool"},
        SpecCase{"hybrid+broadcast+batching,batch=8", "hybrid"},
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
        SpecCase{"sharded:2+hybrid+traced", "sharded:2+hybrid"},
        SpecCase{"sharded+hybrid+batching,batch=16", "sharded+hybrid"},
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
                 "sharded:2+hybrid,waitplane=heap:4"},
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
                 "sharded:2+hybrid,executor=pool:1"}));

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
                      // Duplicate layers and misplaced/malformed
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
                      // counters take no layers.
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

// ---------------------------------------------------------------------
// Compatibility of the removed layers.  Server state files hold raw
// specs, and a stored spec that stops parsing loses its counter on
// restore, so the set of accepted specs is fixed: each row either
// parses (token == nullptr) or is refused with a message naming
// `token`, exactly as before the layers were removed.

struct CompatCase {
  const char* spec;
  const char* token;  ///< nullptr: the spec parses
};

std::string refusal_of(const std::function<void()>& build) {
  try {
    build();
  } catch (const std::invalid_argument& e) {
    return e.what();
  }
  return {};
}

void expect_compat(const CompatCase& p, const std::string& message) {
  if (p.token == nullptr) {
    EXPECT_EQ(message, "") << p.spec;
  } else {
    EXPECT_NE(message.find(p.token), std::string::npos)
        << p.spec << " -> " << (message.empty() ? "accepted" : message);
  }
}

class SpecCompat : public ::testing::TestWithParam<CompatCase> {};

TEST_P(SpecCompat, AcceptsAndRefusesAsBefore) {
  const CompatCase p = GetParam();
  expect_compat(p, refusal_of([&] { (void)make_counter(p.spec); }));
}

INSTANTIATE_TEST_SUITE_P(
    RemovedLayers, SpecCompat,
    ::testing::Values(
        // Parse: a traced layer's options were never read, and the last
        // batch=N wins.
        CompatCase{"hybrid+traced", nullptr},
        CompatCase{"hybrid+traced,x=1", nullptr},
        CompatCase{"hybrid+batching", nullptr},
        CompatCase{"hybrid+batching,batch=1", nullptr},
        CompatCase{"hybrid+batching,batch=0,batch=5", nullptr},
        CompatCase{"list+traced+batching,batch=8+broadcast", nullptr},
        CompatCase{"sharded+hybrid+batching,batch=16+traced", nullptr},
        CompatCase{"pooled:8+futex,waitplane=heap:2+traced", nullptr},
        // Refused: duplicates, unknown or misplaced layers.
        CompatCase{"hybrid+traced+traced", "'traced'"},
        CompatCase{"list+batching+batching", "'batching'"},
        CompatCase{"list+broadcast+traced+broadcast", "'broadcast'"},
        CompatCase{"hybrid+tarced", "'tarced'"},
        CompatCase{"hybrid+sharded", "'sharded'"},
        CompatCase{"list+sharded:4", "'sharded:4'"},
        CompatCase{"hybrid+pooled", "'pooled'"},
        CompatCase{"list+", "empty component"},
        CompatCase{"+traced", "empty component"},
        // Refused: a layer's options.
        CompatCase{"hybrid+batching,batch=0", "batch"},
        CompatCase{"hybrid+batching,foo=1", "'foo'"},
        CompatCase{"list+batching,shards=2", "'shards'"},
        CompatCase{"hybrid+batching,batch=x", "'batch'"},
        CompatCase{"hybrid+batching,batch=0,foo=1", "'foo'"},
        CompatCase{"list+broadcast,batch=2", "'broadcast'"},
        CompatCase{"list+broadcast,shards=0", "'broadcast'"},
        // Refused: the base is checked before a batching layer.
        CompatCase{"bogus+batching,batch=0", "'bogus'"},
        CompatCase{"list,bogus=1+batching,foo=1", "'bogus'"},
        CompatCase{"hybrid,executor=pool:0+batching,batch=0",
                   "executor=pool:0"},
        // Refused: a shared counter takes no layers.
        CompatCase{"shared:/x+traced", "'traced'"},
        CompatCase{"shared:/x+batching", "'batching'"}));

#if !defined(_WIN32)

// A host (the counter server) never checked a batching layer's options,
// so state files may hold such specs; everything else is refused as
// without a host.
class SpecCompatHosted : public ::testing::TestWithParam<CompatCase> {};

TEST_P(SpecCompatHosted, AcceptsAndRefusesAsBefore) {
  const CompatCase p = GetParam();
  expect_compat(p, refusal_of([&] {
                  (void)make_counter(p.spec,
                                     std::make_shared<InlineExecutor>());
                }));
}

INSTANTIATE_TEST_SUITE_P(
    RemovedLayers, SpecCompatHosted,
    ::testing::Values(CompatCase{"hybrid+batching,batch=1000+traced", nullptr},
                      CompatCase{"hybrid+batching,batch=0", nullptr},
                      CompatCase{"hybrid+batching,foo=1", nullptr},
                      CompatCase{"hybrid+traced,x=1", nullptr},
                      CompatCase{"hybrid+traced+traced", "'traced'"},
                      CompatCase{"list+batching+batching", "'batching'"},
                      CompatCase{"hybrid+tarced", "'tarced'"},
                      CompatCase{"list+broadcast,shards=0", "'broadcast'"},
                      CompatCase{"bogus+batching", "'bogus'"}));

#endif  // !_WIN32

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

// make_counter(spec, executor): a host that runs every completion on
// its own executor.

std::size_t thread_count() {
  return static_cast<std::size_t>(std::distance(
      std::filesystem::directory_iterator("/proc/self/task"),
      std::filesystem::directory_iterator()));
}

TEST(SpecHosted, HostExecutorReplacesTheSpecsPool) {
  auto host = std::make_shared<ManualExecutor>();
  const std::size_t threads = thread_count();
  auto c = make_counter("hybrid,executor=pool:2", host);
  EXPECT_EQ(thread_count(), threads);
  EXPECT_EQ(c->spec(), "hybrid");
  std::atomic<bool> fired{false};
  c->OnReach(1, [&] { fired = true; });
  c->Increment(1);
  EXPECT_FALSE(fired.load());
  EXPECT_EQ(host->drain(), 1u);
  EXPECT_TRUE(fired.load());
}

TEST(SpecHosted, HostDropsTheBatchingLayer) {
  // A host drops removed layers like every other caller, so each
  // Increment releases the levels it reaches.
  auto c = make_counter("hybrid+batching,batch=1000+traced",
                        std::make_shared<InlineExecutor>());
  EXPECT_EQ(c->spec(), "hybrid");
  EXPECT_EQ(make_counter("hybrid+batching,batch=1000+traced")->spec(),
            "hybrid");
  bool fired = false;
  c->OnReach(5, [&] { fired = true; });
  c->Increment(5);
  EXPECT_TRUE(fired);
}

TEST(SpecHosted, SharedSpecIsRefused) {
  const std::string name = "/mc-spec-hosted-" + std::to_string(::getpid());
  SharedCounter::Unlink(name);
  try {
    (void)make_counter("shared:" + name, std::make_shared<InlineExecutor>());
    ADD_FAILURE() << "a shared: counter completes on its own threads";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("shared:" + name), std::string::npos)
        << e.what();
  }
  EXPECT_FALSE(std::filesystem::exists("/dev/shm" + name));
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
  EXPECT_GE(heap->stats().index_depth, 1u);

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

// Paper §7: the Increment that reaches a level releases every Check
// parked there.  A batching layer buffered the amount where no parked
// waiter could flush it, so this waiter timed out; the layer is now
// dropped and the Increment reaches the engine.
TEST(SpecBehavior, BatchingSpecIncrementReleasesAParkedWaiter) {
  auto c = make_counter("hybrid+batching,batch=10");
  std::atomic<bool> reached{false};
  std::atomic<bool> done{false};
  std::jthread waiter([&] {
    reached = c->CheckFor(1, 300ms);
    done = true;
  });
  while (c->stats().live_nodes == 0 && !done) std::this_thread::yield();
  c->Increment(1);
  waiter.join();
  EXPECT_TRUE(reached.load());
  EXPECT_EQ(c->debug_value(), 1u);
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

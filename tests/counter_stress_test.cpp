// counter_stress_test.cpp — parameterized stress and property sweeps
// over counter implementations, thread counts, and level shapes.

#include <gtest/gtest.h>

#include <atomic>
#include <cctype>
#include <chrono>
#include <cstdint>
#include <exception>
#include <functional>
#include <numeric>
#include <stdexcept>
#include <stop_token>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include "monotonic/core/any_counter.hpp"
#include "monotonic/core/counter.hpp"
#include "monotonic/core/counter_error.hpp"
#include "monotonic/core/hybrid_counter.hpp"
#include "monotonic/support/rng.hpp"
#include "monotonic/threads/structured.hpp"

namespace monotonic {
namespace {

struct StressParam {
  const char* spec;  // make_counter spec, so sharded variants sweep too
  int writers;
  int readers;
  int items;
};

std::string sanitize(std::string_view name) {
  std::string out(name);
  for (char& c : out) {
    if (!std::isalnum(static_cast<unsigned char>(c))) c = '_';
  }
  return out;
}

std::string param_name(const ::testing::TestParamInfo<StressParam>& info) {
  return sanitize(info.param.spec) + "_w" +
         std::to_string(info.param.writers) + "_r" +
         std::to_string(info.param.readers) + "_n" +
         std::to_string(info.param.items);
}

class CounterStress : public ::testing::TestWithParam<StressParam> {};

// Property: with W incrementing threads each adding `items` ones, every
// reader's Check(level) for level <= W*items eventually passes, and no
// Check passes before the counter could have reached its level.
TEST_P(CounterStress, ChecksPassExactlyWhenReachable) {
  const auto p = GetParam();
  auto counter = make_counter(std::string_view(p.spec));
  const counter_value_t total =
      static_cast<counter_value_t>(p.writers) * p.items;

  std::atomic<std::uint64_t> increments_issued{0};
  std::vector<std::function<void()>> bodies;
  for (int w = 0; w < p.writers; ++w) {
    bodies.emplace_back([&] {
      for (int i = 0; i < p.items; ++i) {
        increments_issued.fetch_add(1, std::memory_order_relaxed);
        counter->Increment(1);
      }
    });
  }
  for (int r = 0; r < p.readers; ++r) {
    bodies.emplace_back([&, r] {
      // Each reader sweeps a different stride of levels.
      for (counter_value_t level = static_cast<counter_value_t>(r) + 1;
           level <= total; level += p.readers) {
        counter->Check(level);
        // The check can only pass once at least `level` unit
        // increments were issued (the issue counter is bumped before
        // each Increment, so issued >= value always).
        EXPECT_GE(increments_issued.load(std::memory_order_relaxed), level);
      }
    });
  }
  multithreaded(std::move(bodies), Execution::kMultithreaded);
  counter->Check(total);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, CounterStress,
    ::testing::Values(
        StressParam{"list", 1, 1, 2000},
        StressParam{"list", 1, 4, 1000},
        StressParam{"list", 4, 4, 500},
        StressParam{"list", 8, 8, 200},
        StressParam{"list-nopool", 4, 4, 500},
        StressParam{"single-cv", 1, 4, 1000},
        StressParam{"single-cv", 4, 4, 500},
        StressParam{"futex", 1, 4, 1000},
        StressParam{"futex", 4, 4, 500},
        StressParam{"spin", 1, 2, 500},
        StressParam{"spin", 2, 2, 500},
        StressParam{"hybrid", 1, 4, 1000},
        StressParam{"hybrid", 4, 4, 500},
        StressParam{"hybrid", 8, 8, 200},
        // Striped value plane: same property, but increments land on
        // stripes and checks observe collapsed sums.
        StressParam{"sharded:4+hybrid", 4, 4, 500},
        StressParam{"sharded:4+hybrid", 8, 8, 200},
        StressParam{"sharded+list", 4, 4, 500},
        StressParam{"sharded:2+futex", 4, 4, 500},
        StressParam{"sharded:2+single-cv", 4, 4, 500}),
    param_name);

struct LevelShapeParam {
  const char* spec;
  int waiters;
  int distinct_levels;
};

std::string shape_name(
    const ::testing::TestParamInfo<LevelShapeParam>& info) {
  return sanitize(info.param.spec) + "_t" +
         std::to_string(info.param.waiters) + "_l" +
         std::to_string(info.param.distinct_levels);
}

class LevelShapes : public ::testing::TestWithParam<LevelShapeParam> {};

// Property: waiters spread over D distinct levels are all released by
// a single Increment that covers every level, regardless of how many
// waiters share each level.
TEST_P(LevelShapes, OneIncrementReleasesEveryCoveredLevel) {
  const auto p = GetParam();
  auto counter = make_counter(std::string_view(p.spec));
  std::atomic<int> released{0};

  std::vector<std::function<void()>> bodies;
  for (int w = 0; w < p.waiters; ++w) {
    const counter_value_t level = (w % p.distinct_levels) + 1;
    bodies.emplace_back([&, level] {
      counter->Check(level);
      released.fetch_add(1, std::memory_order_relaxed);
    });
  }
  bodies.emplace_back([&] {
    // Wait until every waiter has suspended (structurally: all checks
    // either suspended or still arriving), then release all at once.
    while (counter->stats().checks <
           static_cast<std::uint64_t>(p.waiters)) {
      std::this_thread::yield();
    }
    counter->Increment(static_cast<counter_value_t>(p.distinct_levels));
  });
  multithreaded(std::move(bodies), Execution::kMultithreaded);
  EXPECT_EQ(released.load(), p.waiters);
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, LevelShapes,
    ::testing::Values(LevelShapeParam{"list", 16, 1},
                      LevelShapeParam{"list", 16, 4},
                      LevelShapeParam{"list", 16, 16},
                      LevelShapeParam{"list", 32, 8},
                      LevelShapeParam{"list-nopool", 16, 4},
                      LevelShapeParam{"single-cv", 16, 4},
                      LevelShapeParam{"futex", 16, 4},
                      LevelShapeParam{"spin", 8, 4},
                      LevelShapeParam{"hybrid", 16, 4},
                      LevelShapeParam{"hybrid", 32, 8},
                      LevelShapeParam{"sharded:4+hybrid", 16, 4},
                      LevelShapeParam{"sharded:4+hybrid", 32, 8},
                      LevelShapeParam{"sharded+list", 16, 4}),
    shape_name);

// Mixed increment amounts: the counter must behave as the running sum.
TEST(CounterProperty, RandomAmountsMatchRunningSum) {
  Xoshiro256 rng(2026);
  for (int trial = 0; trial < 20; ++trial) {
    Counter c;
    counter_value_t sum = 0;
    for (int op = 0; op < 200; ++op) {
      const counter_value_t amount = rng.uniform(0, 10);
      c.Increment(amount);
      sum += amount;
      c.Check(sum);  // never blocks: value == sum
      EXPECT_EQ(c.debug_snapshot().value, sum);
    }
  }
}

// Chaos round: writers, blocking checkers, and cancellable checkers
// storm one counter while a controller randomly cancels and/or poisons
// mid-storm.  The property under test is the failure model's central
// guarantee: WHATEVER the interleaving, no thread is left permanently
// parked — the block always joins — and every checker exits through
// one of exactly three doors: completed, cancelled, or
// CounterPoisonedError.
class ChaosRound : public ::testing::TestWithParam<const char*> {};

std::string chaos_name(const ::testing::TestParamInfo<const char*>& info) {
  std::string out(info.param);
  for (char& c : out) {
    if (!std::isalnum(static_cast<unsigned char>(c))) c = '_';
  }
  return out;
}

TEST_P(ChaosRound, RandomPoisonAndCancelLeaveNoThreadParked) {
  const std::string_view spec = GetParam();
  Xoshiro256 rng(0xC4A05u ^ std::hash<std::string_view>{}(spec));
  constexpr int kTrials = 8;
  constexpr int kWriters = 2;
  constexpr int kCheckers = 3;
  constexpr int kCancellable = 2;
  constexpr counter_value_t kTotal = 1800;

  for (int trial = 0; trial < kTrials; ++trial) {
    auto counter = make_counter(spec);
    std::stop_source cancel;
    const bool do_cancel = rng.uniform(0, 1) == 1;
    const bool do_poison = rng.uniform(0, 3) != 0;  // 3 in 4 trials
    const auto writer_pause = std::chrono::microseconds(rng.uniform(0, 40));
    const auto chaos_delay = std::chrono::microseconds(rng.uniform(0, 1500));

    std::atomic<int> completed{0};
    std::atomic<int> cancelled{0};
    std::atomic<int> poisoned_exits{0};
    {
      std::vector<std::jthread> threads;
      threads.reserve(kWriters + kCheckers + kCancellable + 1);
      for (int w = 0; w < kWriters; ++w) {
        threads.emplace_back([&] {
          // Increment never throws — a poisoned counter counts drops.
          for (counter_value_t i = 0; i < kTotal / kWriters; ++i) {
            counter->Increment(1);
            if (writer_pause.count() > 0 && i % 256 == 0) {
              std::this_thread::sleep_for(writer_pause);
            }
          }
          // A check-side call publishes any tail the spec buffered
          // (Batching flushes on every Check-family entry; level 0 is
          // always reached, so this never blocks or throws).
          counter->Check(0);
        });
      }
      for (int r = 0; r < kCheckers; ++r) {
        threads.emplace_back([&, r] {
          try {
            for (counter_value_t level = static_cast<counter_value_t>(r) + 1;
                 level <= kTotal; level += kCheckers) {
              counter->Check(level);
            }
            completed.fetch_add(1, std::memory_order_relaxed);
          } catch (const CounterPoisonedError&) {
            poisoned_exits.fetch_add(1, std::memory_order_relaxed);
          }
        });
      }
      for (int c = 0; c < kCancellable; ++c) {
        threads.emplace_back([&, token = cancel.get_token()] {
          try {
            for (counter_value_t level = 1; level <= kTotal; level += 7) {
              if (!counter->Check(level, token)) {
                cancelled.fetch_add(1, std::memory_order_relaxed);
                return;
              }
            }
            completed.fetch_add(1, std::memory_order_relaxed);
          } catch (const CounterPoisonedError&) {
            poisoned_exits.fetch_add(1, std::memory_order_relaxed);
          }
        });
      }
      threads.emplace_back([&] {  // the chaos controller
        std::this_thread::sleep_for(chaos_delay);
        if (do_cancel) cancel.request_stop();
        if (do_poison) {
          counter->Poison(
              std::make_exception_ptr(std::runtime_error("chaos strike")));
        }
      });
    }  // jthread join: the no-thread-left-parked assertion itself

    EXPECT_EQ(completed.load() + cancelled.load() + poisoned_exits.load(),
              kCheckers + kCancellable)
        << spec << " trial " << trial;
    EXPECT_EQ(counter->poisoned(), do_poison) << spec << " trial " << trial;
    if (!do_poison) {
      EXPECT_EQ(poisoned_exits.load(), 0) << spec << " trial " << trial;
      // No poison: the full total was published, so plain checkers all
      // ran to completion.
      EXPECT_GE(completed.load(), kCheckers) << spec << " trial " << trial;
      counter->Check(kTotal);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Chaos, ChaosRound,
    ::testing::Values("list", "single-cv", "futex", "spin", "hybrid",
                      "hybrid+batching,batch=4",
                      "hybrid+traced", "sharded", "sharded:4+hybrid+traced",
                      "sharded:2+futex"),
    chaos_name);

// The stripe-collapse handshake, raced on purpose: a waiter arms the
// watermark (under the mutex) at the same instant incrementers push
// per-stripe cells across the level.  The seq_cst protocol in
// striped_cells.hpp promises the level-crossing increment either sees
// the armed watermark (and takes the locked slow pass that releases
// the waiter) or happens early enough that the waiter's own collapse
// already covers it — a lost wakeup would strand the CheckFor below.
// Run under TSan in CI, where the handshake's orderings are checked,
// not just its outcome.
TEST(StripedPlaneRace, ArmConcurrentWithCrossingIncrementsNeverStrands) {
  constexpr int kTrials = 150;
  constexpr int kIncrementers = 4;
  constexpr counter_value_t kPerThread = 2;
  constexpr counter_value_t kLevel = kIncrementers * kPerThread;

  WaitListOptions options;
  options.stripes = 4;  // force real striping even on small machines

  for (int trial = 0; trial < kTrials; ++trial) {
    ShardedHybridCounter counter(options);
    std::atomic<int> ready{0};
    bool reached = false;
    {
      std::vector<std::jthread> threads;
      threads.reserve(kIncrementers + 1);
      for (int w = 0; w < kIncrementers; ++w) {
        threads.emplace_back([&] {
          ready.fetch_add(1, std::memory_order_relaxed);
          while (ready.load(std::memory_order_relaxed) <= kIncrementers) {
            std::this_thread::yield();
          }
          for (counter_value_t i = 0; i < kPerThread; ++i) {
            counter.Increment(1);
          }
        });
      }
      threads.emplace_back([&] {
        ready.fetch_add(1, std::memory_order_relaxed);
        while (ready.load(std::memory_order_relaxed) <= kIncrementers) {
          std::this_thread::yield();
        }
        // Bounded so a lost wakeup fails the assertion instead of
        // hanging the suite.
        reached = counter.CheckFor(kLevel, std::chrono::seconds(20));
      });
    }
    ASSERT_TRUE(reached) << "lost wakeup on trial " << trial;
    EXPECT_EQ(counter.debug_value(), kLevel);
    EXPECT_EQ(counter.stripe_count(), 4u);
  }
}

// The §7 storage claim under churn: many distinct levels over the
// counter's lifetime, few at any instant.
TEST(CounterProperty, LifetimeLevelsFarExceedLiveLevels) {
  Counter c;
  constexpr int kPhases = 100;
  std::jthread walker([&c] {
    for (int k = 1; k <= kPhases; ++k) {
      c.Check(static_cast<counter_value_t>(k));
    }
  });
  for (int k = 1; k <= kPhases; ++k) c.Increment(1);
  walker.join();
  auto s = c.stats();
  EXPECT_LE(s.max_live_nodes, 1u);
  EXPECT_EQ(s.live_nodes, 0u);
}

}  // namespace
}  // namespace monotonic

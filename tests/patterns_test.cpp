// patterns_test.cpp — §5's three patterns as components (ragged
// barrier, sequencer, broadcast channel) plus the wavefront and
// pipeline extensions.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <numeric>
#include <string>
#include <thread>
#include <vector>

#include "monotonic/core/broadcast_counter.hpp"
#include "monotonic/patterns/broadcast.hpp"
#include "monotonic/patterns/pipeline.hpp"
#include "monotonic/patterns/ragged_barrier.hpp"
#include "monotonic/patterns/sequencer.hpp"
#include "monotonic/patterns/wavefront.hpp"
#include "monotonic/threads/structured.hpp"

namespace monotonic {
namespace {

// ------------------------------------------------------- ragged barrier

TEST(RaggedBarrierTest, NeighbourChainPropagates) {
  // A pipeline of parties where each waits on its left neighbour:
  // arrival order is forced 0,1,2,...,N-1.
  constexpr std::size_t kParties = 6;
  RaggedBarrier<> barrier(kParties);
  std::vector<int> order;
  std::mutex m;
  multithreaded_for(
      std::size_t{0}, kParties, std::size_t{1},
      [&](std::size_t i) {
        if (i > 0) barrier.wait_for(i - 1, 1);
        {
          std::scoped_lock lock(m);
          order.push_back(static_cast<int>(i));
        }
        barrier.arrive(i);
      },
      Execution::kMultithreaded);
  std::vector<int> expected(kParties);
  std::iota(expected.begin(), expected.end(), 0);
  EXPECT_EQ(order, expected);
}

TEST(RaggedBarrierTest, PreloadSatisfiesAllPhases) {
  RaggedBarrier<> barrier(3);
  barrier.preload(0, 100);
  for (counter_value_t t = 1; t <= 100; ++t) barrier.wait_for(0, t);
}

TEST(RaggedBarrierTest, PartiesAheadByDependencyDistance) {
  // Party 0 depends on nothing: it can finish all phases while party 1
  // (which depends on 0) lags — the "ragged" in ragged barrier.
  RaggedBarrier<> barrier(2);
  std::atomic<int> p0_phases{0};
  multithreaded_block(
      [&] {
        for (int t = 0; t < 50; ++t) {
          barrier.arrive(0);
          p0_phases.fetch_add(1);
        }
      },
      [&] {
        // Party 1 waits for party 0's *last* phase before starting.
        barrier.wait_for(0, 50);
        EXPECT_EQ(p0_phases.load(), 50);
      });
}

TEST(RaggedBarrierTest, IndexOutOfRangeRejected) {
  RaggedBarrier<> barrier(2);
  EXPECT_THROW(barrier.arrive(2), std::invalid_argument);
  EXPECT_THROW(barrier.counter(5), std::invalid_argument);
}

TEST(RaggedBarrierTest, WorksWithAnyCounterImplementation) {
  RaggedBarrier<SingleCvCounter> barrier(2);
  barrier.arrive(0);
  barrier.wait_for(0, 1);
}

TEST(RaggedBarrierTest, AggregateStatsMergesEveryStatistic) {
  RaggedBarrier<> barrier(3);
  barrier.arrive(0);
  EXPECT_FALSE(barrier.counter(1).CheckFor(1, std::chrono::milliseconds(1)));
  barrier.counter(2).Poison("party 2 failed");
  const CounterStatsSnapshot total = barrier.aggregate_stats();
  EXPECT_EQ(total.increments, 1u);
  EXPECT_EQ(total.suspensions, 1u);
  EXPECT_EQ(total.timed_out_checks, 1u);
  EXPECT_EQ(total.poisons, 1u);
  EXPECT_EQ(total.max_live_waiters, 1u);  // a peak: max over parties
  // Configuration: the max over parties, not their sum.
  EXPECT_EQ(total.stripe_count, barrier.counter(0).stats().stripe_count);
}

// ------------------------------------------------------------ sequencer

TEST(SequencerTest, SectionsRunInIndexOrder) {
  Sequencer<> seq;
  std::vector<int> order;
  // Spawn in reverse so arrival order opposes sequence order.
  std::vector<std::function<void()>> bodies;
  for (int i = 7; i >= 0; --i) {
    bodies.emplace_back([&, i] {
      seq.run_in_order(static_cast<counter_value_t>(i),
                       [&] { order.push_back(i); });
    });
  }
  multithreaded(std::move(bodies), Execution::kMultithreaded);
  std::vector<int> expected(8);
  std::iota(expected.begin(), expected.end(), 0);
  EXPECT_EQ(order, expected);
}

TEST(SequencerTest, ExceptionStillCompletesTurn) {
  Sequencer<> seq;
  std::vector<int> order;
  EXPECT_THROW(multithreaded_block(
                   [&] {
                     seq.run_in_order(0, [&] {
                       order.push_back(0);
                       throw std::runtime_error("section 0 failed");
                     });
                   },
                   [&] { seq.run_in_order(1, [&] { order.push_back(1); }); }),
               MultiError);
  // Section 1 must not be deadlocked by section 0's exception.
  EXPECT_EQ(order, (std::vector<int>{0, 1}));
}

TEST(SequencerTest, ManualTurnProtocol) {
  Sequencer<> seq;
  seq.wait_turn(0);
  seq.complete();
  seq.wait_turn(1);
  seq.complete();
  seq.wait_turn(2);
}

// ------------------------------------------------------------ broadcast

TEST(BroadcastChannelTest, EveryReaderSeesEveryItem) {
  constexpr std::size_t kItems = 300;
  constexpr int kReaders = 3;
  BroadcastChannel<int> channel(kItems);
  std::atomic<long long> total{0};

  std::vector<std::function<void()>> bodies;
  bodies.emplace_back([&] {
    auto writer = channel.writer(1);
    for (std::size_t i = 0; i < kItems; ++i) {
      writer.publish(static_cast<int>(i));
    }
  });
  for (int r = 0; r < kReaders; ++r) {
    bodies.emplace_back([&] {
      auto reader = channel.reader(1);
      long long sum = 0;
      reader.for_each([&](std::size_t i, const int& item) {
        EXPECT_EQ(item, static_cast<int>(i));
        sum += item;
      });
      total += sum;
    });
  }
  multithreaded(std::move(bodies), Execution::kMultithreaded);
  const long long each = static_cast<long long>(kItems) * (kItems - 1) / 2;
  EXPECT_EQ(total.load(), kReaders * each);
}

TEST(BroadcastChannelTest, MixedBlockSizes) {
  // §5.3: "Different threads can use different blocking granularity."
  constexpr std::size_t kItems = 1000;
  BroadcastChannel<int> channel(kItems);
  std::atomic<int> ok_readers{0};
  std::vector<std::function<void()>> bodies;
  bodies.emplace_back([&] {
    auto writer = channel.writer(16);  // writer announces every 16
    for (std::size_t i = 0; i < kItems; ++i) {
      writer.publish(static_cast<int>(i));
    }
  });
  for (std::size_t block : {std::size_t{1}, std::size_t{7}, std::size_t{64},
                            std::size_t{1000}}) {
    bodies.emplace_back([&, block] {
      auto reader = channel.reader(block);
      for (std::size_t i = 0; i < kItems; ++i) {
        if (reader.get(i) != static_cast<int>(i)) return;
      }
      ok_readers.fetch_add(1);
    });
  }
  multithreaded(std::move(bodies), Execution::kMultithreaded);
  EXPECT_EQ(ok_readers.load(), 4);
}

TEST(BroadcastChannelTest, BlockedWriterSynchronizesPerBlockNotPerItem) {
  constexpr std::size_t kItems = 256;
  BroadcastChannel<int> channel(kItems);
  {
    auto writer = channel.writer(32);
    for (std::size_t i = 0; i < kItems; ++i) {
      writer.publish(static_cast<int>(i));
    }
  }
  // 256/32 = 8 counter operations, not 256 (§5.3's tuning knob).
  EXPECT_EQ(channel.counter().stats().increments, 8u);
}

TEST(BroadcastChannelTest, PartialFinalBlockIsFlushed) {
  BroadcastChannel<int> channel(10);
  {
    auto writer = channel.writer(4);  // 4+4+2: final partial block
    for (int i = 0; i < 10; ++i) writer.publish(i);
  }
  auto reader = channel.reader(1);
  EXPECT_EQ(reader.get(9), 9);  // would hang if the tail were lost
}

TEST(BroadcastChannelTest, AbandonedWriterFlushesOnDestruction) {
  BroadcastChannel<int> channel(10);
  {
    auto writer = channel.writer(8);
    writer.publish(11);
    writer.publish(22);  // mid-block; destructor must announce them
  }
  auto reader = channel.reader(1);
  EXPECT_EQ(reader.get(0), 11);
  EXPECT_EQ(reader.get(1), 22);
}

TEST(BroadcastChannelTest, SingleCounterRegardlessOfReaders) {
  // The structural §5.3 claim: one sync object total, versus one per
  // item for the Condition-array baseline.
  ConditionPerItemBroadcast<int> baseline(500);
  EXPECT_EQ(baseline.sync_object_count(), 500u);
  // BroadcastChannel has exactly one counter by construction; its type
  // system enforces it — nothing to count at runtime.
}

TEST(ConditionPerItemBroadcastTest, PublishThenGet) {
  ConditionPerItemBroadcast<std::string> b(3);
  b.publish(0, "a");
  b.publish(2, "c");
  EXPECT_EQ(b.get(0), "a");
  EXPECT_EQ(b.get(2), "c");
}

TEST(ConditionPerItemBroadcastTest, GetBlocksUntilPublished) {
  ConditionPerItemBroadcast<int> b(2);
  multithreaded_block(
      [&] {
        std::this_thread::sleep_for(std::chrono::milliseconds(10));
        b.publish(1, 77);
      },
      [&] { EXPECT_EQ(b.get(1), 77); });
}

// ------------------------------------------------------------ wavefront

TEST(WavefrontTest, VisitsEveryCellOnce) {
  constexpr std::size_t kRows = 8, kCols = 9;
  std::vector<std::atomic<int>> visits(kRows * kCols);
  wavefront_rows(kRows, kCols, 3, [&](std::size_t r, std::size_t c) {
    visits[r * kCols + c].fetch_add(1);
  });
  for (auto& v : visits) EXPECT_EQ(v.load(), 1);
}

TEST(WavefrontTest, DependenciesAreHonoured) {
  // value(r, c) = value(r-1, c) + value(r, c-1) with borders 1: a
  // Pascal-like recurrence whose result is wrong under any dependency
  // violation.
  constexpr std::size_t kRows = 10, kCols = 10;
  std::vector<std::vector<std::uint64_t>> grid(
      kRows, std::vector<std::uint64_t>(kCols, 0));
  wavefront_rows(kRows, kCols, 4, [&](std::size_t r, std::size_t c) {
    const std::uint64_t up = r > 0 ? grid[r - 1][c] : 1;
    const std::uint64_t left = c > 0 ? grid[r][c - 1] : 1;
    grid[r][c] = up + left;
  });
  // Reference computed sequentially.
  std::vector<std::vector<std::uint64_t>> ref(
      kRows, std::vector<std::uint64_t>(kCols, 0));
  for (std::size_t r = 0; r < kRows; ++r) {
    for (std::size_t c = 0; c < kCols; ++c) {
      const std::uint64_t up = r > 0 ? ref[r - 1][c] : 1;
      const std::uint64_t left = c > 0 ? ref[r][c - 1] : 1;
      ref[r][c] = up + left;
    }
  }
  EXPECT_EQ(grid, ref);
}

TEST(WavefrontTest, MoreThreadsThanRows) {
  std::atomic<int> cells{0};
  wavefront_rows(2, 3, 8, [&](std::size_t, std::size_t) { cells += 1; });
  EXPECT_EQ(cells.load(), 6);
}

TEST(WavefrontTest, SingleThreadStillCorrect) {
  std::atomic<int> cells{0};
  wavefront_rows(4, 4, 1, [&](std::size_t, std::size_t) { cells += 1; });
  EXPECT_EQ(cells.load(), 16);
}

// ------------------------------------------------------------- pipeline

TEST(PipelineTest, StagesStreamInOrder) {
  Pipeline<int> pipeline;
  pipeline.add_stage(5, [](Pipeline<int>::Context& ctx) {
    for (int i = 0; i < 5; ++i) ctx.emit(i);
  });
  pipeline.add_stage(5, [](Pipeline<int>::Context& ctx) {
    for (std::size_t i = 0; i < ctx.count(0); ++i) {
      ctx.emit(ctx.read(0, i) * 10);
    }
  });
  pipeline.run(Execution::kMultithreaded);
  EXPECT_EQ(pipeline.output(0), (std::vector<int>{0, 1, 2, 3, 4}));
  EXPECT_EQ(pipeline.output(1), (std::vector<int>{0, 10, 20, 30, 40}));
}

TEST(PipelineTest, DiamondDependencies) {
  // Stage 2 reads both stage 0 and stage 1.
  Pipeline<int> pipeline;
  pipeline.add_stage(3, [](Pipeline<int>::Context& ctx) {
    for (int i = 0; i < 3; ++i) ctx.emit(i + 1);  // 1 2 3
  });
  pipeline.add_stage(3, [](Pipeline<int>::Context& ctx) {
    for (std::size_t i = 0; i < 3; ++i) ctx.emit(ctx.read(0, i) * 2);  // 2 4 6
  });
  pipeline.add_stage(3, [](Pipeline<int>::Context& ctx) {
    for (std::size_t i = 0; i < 3; ++i) {
      ctx.emit(ctx.read(0, i) + ctx.read(1, i));  // 3 6 9
    }
  });
  pipeline.run(Execution::kMultithreaded);
  EXPECT_EQ(pipeline.output(2), (std::vector<int>{3, 6, 9}));
}

TEST(PipelineTest, ReadingLaterStageIsRejected) {
  Pipeline<int> pipeline;
  pipeline.add_stage(1, [](Pipeline<int>::Context& ctx) {
    EXPECT_THROW(ctx.read(0, 0), std::invalid_argument);  // self-read
    ctx.emit(1);
  });
  pipeline.run(Execution::kMultithreaded);
}

TEST(PipelineTest, SequentialPolicyMatchesMultithreaded) {
  auto build_and_run = [](Execution policy) {
    Pipeline<int> pipeline;
    pipeline.add_stage(4, [](Pipeline<int>::Context& ctx) {
      for (int i = 0; i < 4; ++i) ctx.emit(i * i);
    });
    pipeline.add_stage(4, [](Pipeline<int>::Context& ctx) {
      for (std::size_t i = 0; i < 4; ++i) ctx.emit(ctx.read(0, i) + 1);
    });
    pipeline.run(policy);
    return pipeline.output(1);
  };
  EXPECT_EQ(build_and_run(Execution::kSequential),
            build_and_run(Execution::kMultithreaded));
}

}  // namespace
}  // namespace monotonic

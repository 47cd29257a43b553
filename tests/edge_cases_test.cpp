// edge_cases_test.cpp — failure handling, misuse detection, and
// boundary behaviour across the library.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <sstream>
#include <thread>

#include "monotonic/core/counter.hpp"
#include "monotonic/core/futex_counter.hpp"
#include "monotonic/patterns/broadcast.hpp"
#include "monotonic/patterns/pipeline.hpp"
#include "monotonic/support/table.hpp"
#include "monotonic/sync/event.hpp"
#include "monotonic/threads/multi_error.hpp"
#include "monotonic/threads/structured.hpp"

namespace monotonic {
namespace {

using namespace std::chrono_literals;

// ------------------------------------------------------- counter misuse

TEST(CounterEdge, DestructionWithWaitersAborts) {
  // Destroying a counter while a thread sleeps in Check would destroy
  // a condition variable under a waiter (UB); the library aborts with
  // a message instead.  Death test: the child process must die.
  EXPECT_DEATH(
      {
        auto* counter = new Counter();
        std::thread waiter([&] { counter->Check(1); });
        waiter.detach();  // death-test child: deliberately unjoined
        // Give the waiter time to suspend, then destroy underneath it.
        std::this_thread::sleep_for(100ms);
        delete counter;
      },
      "destroyed with suspended waiters");
}

TEST(CounterEdge, CheckForZeroTimeoutIsNonBlockingProbe) {
  Counter c;
  EXPECT_FALSE(c.CheckFor(1, 0ms));
  c.Increment(1);
  EXPECT_TRUE(c.CheckFor(1, 0ms));
}

TEST(CounterEdge, CheckLevelZeroAlwaysPasses) {
  Counter c;
  c.Check(0);
  c.Increment(~counter_value_t{0});
  c.Check(0);
}

TEST(CounterEdge, IncrementByMaxFromZero) {
  Counter c;
  c.Increment(~counter_value_t{0});
  c.Check(~counter_value_t{0});
  EXPECT_EQ(c.debug_snapshot().value, ~counter_value_t{0});
}

TEST(CounterEdge, FutexCounterSurvivesWakeupStorm) {
  FutexCounter c;
  std::atomic<int> released{0};
  {
    std::vector<std::jthread> waiters;
    for (int i = 0; i < 16; ++i) {
      waiters.emplace_back([&c, &released, i] {
        c.Check(static_cast<counter_value_t>(i % 4) + 1);
        released.fetch_add(1);
      });
    }
    // Many tiny increments: each FUTEX_WAKE storms all sleepers.
    for (int i = 0; i < 4; ++i) {
      std::this_thread::sleep_for(1ms);
      c.Increment(1);
    }
  }
  EXPECT_EQ(released.load(), 16);
}

// ------------------------------------------------------ channel misuse

TEST(BroadcastEdge, PublishPastCapacityRejected) {
  BroadcastChannel<int> ch(2);
  auto writer = ch.writer(1);
  writer.publish(1);
  writer.publish(2);
  EXPECT_THROW(writer.publish(3), std::invalid_argument);
}

TEST(BroadcastEdge, ReadPastCapacityRejected) {
  BroadcastChannel<int> ch(2);
  auto reader = ch.reader(1);
  EXPECT_THROW(reader.get(2), std::invalid_argument);
}

TEST(BroadcastEdge, ZeroBlockSizeRejected) {
  BroadcastChannel<int> ch(4);
  EXPECT_THROW(ch.writer(0), std::invalid_argument);
  EXPECT_THROW(ch.reader(0), std::invalid_argument);
  EXPECT_THROW(BroadcastChannel<int>(0), std::invalid_argument);
}

TEST(PipelineEdge, OutputBeforeRunRejected) {
  Pipeline<int> p;
  p.add_stage(1, [](Pipeline<int>::Context& ctx) { ctx.emit(1); });
  EXPECT_THROW(p.output(0), std::invalid_argument);
}

TEST(PipelineEdge, SecondRunRejected) {
  Pipeline<int> p;
  p.add_stage(1, [](Pipeline<int>::Context& ctx) { ctx.emit(1); });
  p.run(Execution::kSequential);
  EXPECT_THROW(p.run(Execution::kSequential), std::invalid_argument);
  EXPECT_THROW(
      p.add_stage(1, [](Pipeline<int>::Context& ctx) { ctx.emit(1); }),
      std::invalid_argument);
}

// ---------------------------------------------------------- multi_error

TEST(MultiErrorEdge, MessageListsEveryFailure) {
  std::vector<std::exception_ptr> errors;
  try {
    throw std::runtime_error("alpha failed");
  } catch (...) {
    errors.push_back(std::current_exception());
  }
  try {
    throw std::logic_error("beta failed");
  } catch (...) {
    errors.push_back(std::current_exception());
  }
  const MultiError error(std::move(errors));
  const std::string what = error.what();
  EXPECT_NE(what.find("2 thread(s)"), std::string::npos);
  EXPECT_NE(what.find("alpha failed"), std::string::npos);
  EXPECT_NE(what.find("beta failed"), std::string::npos);
}

TEST(MultiErrorEdge, NonStdExceptionHandled) {
  std::vector<std::exception_ptr> errors;
  try {
    throw 42;  // NOLINT: deliberately not a std::exception
  } catch (...) {
    errors.push_back(std::current_exception());
  }
  const MultiError error(std::move(errors));
  EXPECT_NE(std::string(error.what()).find("non-std exception"),
            std::string::npos);
}

TEST(MultiErrorEdge, NestedMultithreadedPropagates) {
  EXPECT_THROW(multithreaded_block([] {
                 multithreaded_block(
                     [] { throw std::runtime_error("inner"); });
               }),
               MultiError);
}

// --------------------------------------------------------------- tables

TEST(TableEdge, StreamOperatorMatchesToString) {
  TextTable t({"x"});
  t.add_row({"1"});
  std::ostringstream os;
  os << t;
  EXPECT_EQ(os.str(), t.to_string());
}

TEST(TableEdge, EmptyHeaderRejected) {
  EXPECT_THROW(TextTable({}), std::invalid_argument);
}

// ------------------------------------------------------------ condition

TEST(ConditionEdge, StressManySettersManyWaiters) {
  // Set() is idempotent: concurrent setters and waiters must all
  // converge without double-notify issues.
  for (int round = 0; round < 20; ++round) {
    Condition cond;
    std::atomic<int> passed{0};
    std::vector<std::function<void()>> bodies;
    for (int i = 0; i < 4; ++i) {
      bodies.emplace_back([&] {
        cond.Check();
        passed.fetch_add(1);
      });
    }
    for (int i = 0; i < 2; ++i) {
      bodies.emplace_back([&] { cond.Set(); });
    }
    multithreaded(std::move(bodies), Execution::kMultithreaded);
    ASSERT_EQ(passed.load(), 4);
  }
}

}  // namespace
}  // namespace monotonic

// bench_counter_ops — experiment E5 (§7 complexity claims), using
// google-benchmark for the micro-operations.
//
//   * Increment / fast-path Check latency per implementation.
//   * Increment cost as a function of the number of *distinct levels*
//     released (the §7 bound) — contrast with the single-CV broadcast
//     implementation, whose cost tracks the number of *waiters*.

#include <benchmark/benchmark.h>

#include <chrono>
#include <functional>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.hpp"
#include "monotonic/core/any_counter.hpp"
#include "monotonic/core/broadcast_counter.hpp"
#include "monotonic/core/counter.hpp"
#include "monotonic/core/futex_counter.hpp"
#include "monotonic/core/hybrid_counter.hpp"
#include "monotonic/core/spin_counter.hpp"
#include "monotonic/sync/latch.hpp"
#include "monotonic/threads/structured.hpp"

namespace monotonic {
namespace {

template <typename C>
void BM_IncrementUncontended(benchmark::State& state) {
  C counter;
  for (auto _ : state) {
    counter.Increment(1);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK_TEMPLATE(BM_IncrementUncontended, Counter);
BENCHMARK_TEMPLATE(BM_IncrementUncontended, SingleCvCounter);
BENCHMARK_TEMPLATE(BM_IncrementUncontended, FutexCounter);
BENCHMARK_TEMPLATE(BM_IncrementUncontended, SpinCounter);
BENCHMARK_TEMPLATE(BM_IncrementUncontended, HybridCounter);
// Striped value plane: with no armed waiter the whole Increment is one
// fetch_add on a private stripe plus a watermark load.
BENCHMARK_TEMPLATE(BM_IncrementUncontended, ShardedCounter);
BENCHMARK_TEMPLATE(BM_IncrementUncontended, ShardedHybridCounter);

template <typename C>
void BM_CheckFastPath(benchmark::State& state) {
  C counter;
  counter.Increment(1u << 30);
  counter_value_t level = 0;
  for (auto _ : state) {
    counter.Check(level++ & 1023);  // always below the value
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK_TEMPLATE(BM_CheckFastPath, Counter);
BENCHMARK_TEMPLATE(BM_CheckFastPath, SingleCvCounter);
BENCHMARK_TEMPLATE(BM_CheckFastPath, FutexCounter);
BENCHMARK_TEMPLATE(BM_CheckFastPath, SpinCounter);
BENCHMARK_TEMPLATE(BM_CheckFastPath, HybridCounter);
// Striped check pays a sum over the stripes instead of one load.
BENCHMARK_TEMPLATE(BM_CheckFastPath, ShardedCounter);
BENCHMARK_TEMPLATE(BM_CheckFastPath, ShardedHybridCounter);

// Timed probe latency through the shared engine (CheckFor is now
// uniform across implementations, so one template serves all).
template <typename C>
void BM_CheckForFastPath(benchmark::State& state) {
  C counter;
  counter.Increment(1u << 20);
  counter_value_t level = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        counter.CheckFor(level++ & 1023, std::chrono::nanoseconds(0)));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK_TEMPLATE(BM_CheckForFastPath, Counter);
BENCHMARK_TEMPLATE(BM_CheckForFastPath, FutexCounter);
BENCHMARK_TEMPLATE(BM_CheckForFastPath, HybridCounter);

// §7's bound: Increment wakes W waiters spread over L levels with L
// notify_all calls (one per released node).  counters.wakeups / notifies
// are reported so the O(levels)-not-O(waiters) claim is visible.
void BM_ReleaseWaveList(benchmark::State& state) {
  const auto waiters = static_cast<std::size_t>(state.range(0));
  const auto levels = static_cast<std::size_t>(state.range(1));
  std::uint64_t total_notifies = 0;
  std::uint64_t total_wakeups = 0;
  for (auto _ : state) {
    state.PauseTiming();
    Counter counter;
    CountdownLatch suspended(waiters);
    std::vector<std::jthread> threads;
    threads.reserve(waiters);
    for (std::size_t w = 0; w < waiters; ++w) {
      threads.emplace_back([&, w] {
        suspended.count_down();
        counter.Check((w % levels) + 1);
      });
    }
    suspended.wait();
    // Best-effort: give waiters time to actually suspend.
    while (counter.stats().suspensions < waiters &&
           counter.stats().fast_checks == 0) {
      std::this_thread::yield();
    }
    state.ResumeTiming();
    counter.Increment(levels);  // one release wave
    state.PauseTiming();
    threads.clear();
    const auto s = counter.stats();
    total_notifies += s.notifies;
    total_wakeups += s.wakeups;
    state.ResumeTiming();
  }
  state.counters["notifies/wave"] =
      benchmark::Counter(static_cast<double>(total_notifies) /
                         static_cast<double>(state.iterations()));
  state.counters["wakeups/wave"] =
      benchmark::Counter(static_cast<double>(total_wakeups) /
                         static_cast<double>(state.iterations()));
}
BENCHMARK(BM_ReleaseWaveList)
    ->ArgsProduct({{8, 16, 32}, {1, 4, 16}})
    ->Unit(benchmark::kMicrosecond)
    ->Iterations(20);

// Same shape on the single-CV implementation: every waiter eats a
// spurious wakeup for increments below its level.
void BM_ReleaseWaveSingleCv(benchmark::State& state) {
  const auto waiters = static_cast<std::size_t>(state.range(0));
  const auto levels = static_cast<std::size_t>(state.range(1));
  std::uint64_t total_spurious = 0;
  for (auto _ : state) {
    state.PauseTiming();
    SingleCvCounter counter;
    CountdownLatch suspended(waiters);
    std::vector<std::jthread> threads;
    threads.reserve(waiters);
    for (std::size_t w = 0; w < waiters; ++w) {
      threads.emplace_back([&, w] {
        suspended.count_down();
        counter.Check((w % levels) + 1);
      });
    }
    suspended.wait();
    while (counter.stats().suspensions < waiters &&
           counter.stats().fast_checks == 0) {
      std::this_thread::yield();
    }
    state.ResumeTiming();
    // Release level by level: each notify_all hits ALL waiters.
    for (std::size_t l = 0; l < levels; ++l) counter.Increment(1);
    state.PauseTiming();
    threads.clear();
    total_spurious += counter.stats().spurious_wakeups;
    state.ResumeTiming();
  }
  state.counters["spurious/wave"] =
      benchmark::Counter(static_cast<double>(total_spurious) /
                         static_cast<double>(state.iterations()));
}
BENCHMARK(BM_ReleaseWaveSingleCv)
    ->ArgsProduct({{8, 16, 32}, {1, 4, 16}})
    ->Unit(benchmark::kMicrosecond)
    ->Iterations(20);

// OnReach dispatch: cost of firing N async callbacks in one Increment,
// versus waking N parked threads (the BM_ReleaseWave shapes above).
void BM_OnReachDispatch(benchmark::State& state) {
  const auto callbacks = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    state.PauseTiming();
    Counter counter;
    std::uint64_t sink = 0;
    for (std::size_t i = 0; i < callbacks; ++i) {
      counter.OnReach(i + 1, [&sink, i] { sink += i; });
    }
    state.ResumeTiming();
    counter.Increment(callbacks);  // one wave fires everything
    benchmark::DoNotOptimize(sink);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(callbacks));
}
BENCHMARK(BM_OnReachDispatch)->Arg(8)->Arg(64)->Arg(512)->Unit(
    benchmark::kMicrosecond);

// Node pool ablation: repeated suspend/release cycles with and without
// the free-list.
void BM_NodeChurn(benchmark::State& state) {
  const bool pooled = state.range(0) != 0;
  Counter::Options opts;
  opts.pool_nodes = pooled;
  for (auto _ : state) {
    state.PauseTiming();
    Counter counter(opts);
    state.ResumeTiming();
    for (int round = 0; round < 64; ++round) {
      std::jthread waiter([&, round] {
        counter.Check(static_cast<counter_value_t>(round) + 1);
      });
      while (counter.stats().suspensions <=
             static_cast<std::uint64_t>(round)) {
        std::this_thread::yield();
      }
      counter.Increment(1);
    }
  }
}
BENCHMARK(BM_NodeChurn)->Arg(0)->Arg(1)->Unit(benchmark::kMillisecond);

}  // namespace

// The tentpole's headline measurement: multi-producer Increment
// throughput, striped value plane vs the single fetch_add word, across
// producer counts.  This is the table the acceptance criterion reads
// (sharded vs unsharded hybrid at 8 threads), and the rows land in
// BENCH_counter.json via --json.
void producer_scaling(const bench::JsonlWriter& json, bool quick) {
  bench::banner("E11", "multi-producer Increment: striped vs single word");
  bench::note(
      "No waiters are armed, so every Increment is eligible for the\n"
      "fast path; the unsharded hybrid still serializes producers on\n"
      "one cache line while the sharded plane gives each thread a\n"
      "private stripe.  On a single-core host the threads time-slice\n"
      "instead of colliding, which flattens the separation — read the\n"
      "stripe effect from multi-core runs.");
  TextTable table({"spec", "threads", "ns/op", "stripes"});
  // These rows feed the CI perf gate (tools/check_bench.py), so quick
  // mode shrinks NOTHING here: the whole matrix is under a second, and
  // both the 10x-shorter workload (fixed thread-spawn overhead leaks
  // into ns/op) and single reps (one sample of a contended run) made
  // the gate noise-fail on oversubscribed runners.
  const counter_value_t per_thread = 200000;
  const int reps = 3;
  (void)quick;
  for (const std::string spec :
       {std::string("hybrid"), std::string("sharded:8+hybrid")}) {
    for (const int threads : {1, 2, 4, 8}) {
      const auto probe = make_counter(spec);
      const double ms = bench::median_ms(reps, [&] {
        auto c = make_counter(spec);
        std::vector<std::function<void()>> bodies;
        bodies.reserve(static_cast<std::size_t>(threads));
        for (int t = 0; t < threads; ++t) {
          bodies.emplace_back([&c, per_thread] {
            for (counter_value_t i = 0; i < per_thread; ++i) {
              c->Increment(1);
            }
          });
        }
        multithreaded(std::move(bodies), Execution::kMultithreaded);
      });
      const double ns_per_op =
          ms * 1e6 /
          static_cast<double>(per_thread * static_cast<counter_value_t>(
                                               threads));
      table.add_row({spec, cell(threads), cell(ns_per_op, 1),
                     cell(probe->stripe_count())});
      json.record("increment_mt", spec, threads, ns_per_op,
                  probe->stripe_count());
    }
  }
  bench::print(table);
}

}  // namespace monotonic

// Custom main instead of BENCHMARK_MAIN(): peels off --json/--quick
// before google-benchmark sees the argument list, then appends the
// producer-scaling study.  --quick skips the microbenchmark matrix so
// CI's bench-smoke job stays fast while still exercising the JSON
// path.
int main(int argc, char** argv) {
  const auto cli = monotonic::bench::consume_common_flags(&argc, argv);
  const monotonic::bench::JsonlWriter json(cli.json_path);
  if (!cli.quick) {
    benchmark::Initialize(&argc, argv);
    if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
    benchmark::RunSpecifiedBenchmarks();
    benchmark::Shutdown();
  }
  monotonic::producer_scaling(json, cli.quick);
  return 0;
}

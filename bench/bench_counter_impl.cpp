// bench_counter_impl — experiment E10 (implementation ablation).
//
// The same workloads driven through every counter implementation:
// the §7 wait-list Counter (with and without node pooling), the
// single-CV broadcast baseline, the futex implementation, and the
// busy-wait implementation.  Shapes to look for: the wait-list wins on
// spurious wakeups as levels spread out; spin is hopeless when
// oversubscribed (threads >> cores); futex tracks single-CV but with
// cheaper uncontended ops.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <exception>
#include <functional>
#include <memory>
#include <stdexcept>
#include <thread>
#include <vector>

#include "bench_util.hpp"
#include "monotonic/algos/floyd_warshall.hpp"
#include "monotonic/algos/graph.hpp"
#include "monotonic/algos/heat1d.hpp"
#include "monotonic/core/any_counter.hpp"
#include "monotonic/core/awaitable.hpp"
#include "monotonic/core/broadcast_counter.hpp"
#include "monotonic/core/counter.hpp"
#include "monotonic/core/futex_counter.hpp"
#include "monotonic/core/hybrid_counter.hpp"
#include "monotonic/core/spin_counter.hpp"
#include "monotonic/threads/structured.hpp"

namespace monotonic {
namespace {

using bench::banner;
using bench::median_ms;
using bench::note;

constexpr int kReps = 3;

// --quick (CI's bench-smoke job) shrinks workloads and skips the
// slowest ablations; --json records machine-readable rows.
bool g_quick = false;
bench::JsonlWriter g_json;

template <typename C>
void fw_row(TextTable& table, const std::string& name,
            const SquareMatrix& edges, const FwOptions& options,
            const std::function<C*()>& make) {
  const double ms = median_ms(kReps, [&] {
    std::unique_ptr<C> c(make());
    (void)fw_counter_with(edges, options, *c);
  });
  std::unique_ptr<C> c(make());
  (void)fw_counter_with(edges, options, *c);
  const auto s = c->stats();
  table.add_row({name, cell(ms), cell(s.suspensions),
                 cell(s.spurious_wakeups), cell(s.notifies)});
}

void fw_ablation() {
  banner("E10.a", "Floyd-Warshall (N=128, t=4) per implementation");
  TextTable table(
      {"impl", "ms", "suspensions", "spurious wakeups", "notifies"});
  const auto edges = random_graph(128, {.seed = 50});
  FwOptions options;
  options.num_threads = 4;

  fw_row<Counter>(table, "list", edges, options, [] { return new Counter(); });
  fw_row<Counter>(table, "list-nopool", edges, options, [] {
    Counter::Options o;
    o.pool_nodes = false;
    return new Counter(o);
  });
  fw_row<SingleCvCounter>(table, "single-cv", edges, options,
                          [] { return new SingleCvCounter(); });
  fw_row<FutexCounter>(table, "futex", edges, options,
                       [] { return new FutexCounter(); });
  fw_row<SpinCounter>(table, "spin", edges, options,
                      [] { return new SpinCounter(); });
  fw_row<HybridCounter>(table, "hybrid", edges, options,
                        [] { return new HybridCounter(); });
  fw_row<ShardedHybridCounter>(table, "sharded+hybrid", edges, options,
                               [] { return new ShardedHybridCounter(); });
  bench::print(table);
}

void heat_ablation() {
  banner("E10.b", "heat 16 cells x 200 steps per implementation");
  note("14 threads on one core: the busy-wait implementation pays for\n"
       "every spin; kernel-sleeping implementations schedule cleanly.");
  TextTable table({"impl", "ms"});
  std::vector<double> rod(16, 1.0);
  rod.front() = 100.0;
  const HeatOptions options{.steps = 200, .cell_hook = {}, .telemetry = {}};
  table.add_row({"list", cell(median_ms(kReps, [&] {
                   (void)heat_ragged_with<Counter>(rod, options);
                 }))});
  table.add_row({"single-cv", cell(median_ms(kReps, [&] {
                   (void)heat_ragged_with<SingleCvCounter>(rod, options);
                 }))});
  table.add_row({"futex", cell(median_ms(kReps, [&] {
                   (void)heat_ragged_with<FutexCounter>(rod, options);
                 }))});
  table.add_row({"spin", cell(median_ms(1, [&] {
                   (void)heat_ragged_with<SpinCounter>(rod, options);
                 }))});
  table.add_row({"hybrid", cell(median_ms(kReps, [&] {
                   (void)heat_ragged_with<HybridCounter>(rod, options);
                 }))});
  bench::print(table);
}

void handoff_ablation() {
  const counter_value_t handoffs = g_quick ? 2000 : 10000;
  banner("E10.c", "1:1 handoff chain latency (" +
                      std::to_string(handoffs) + " handoffs)");
  TextTable table({"impl", "ms", "us/handoff"});
  std::vector<std::string> specs;
  for (CounterKind kind : all_counter_kinds()) {
    specs.emplace_back(to_string(kind));
  }
  specs.emplace_back("sharded+hybrid");
  // Pooled vs unpooled: the handoff chain acquires one wait node per
  // ping, so preallocation ("pooled:N") decides whether the steady
  // state ever touches the allocator (list-nopool above is the other
  // extreme: every acquire pays the heap).
  specs.emplace_back("pooled:64+list");
  specs.emplace_back("pooled:64+hybrid");
  for (const std::string& spec : specs) {
    // Gated rows (check_bench.py): keep the median-of-kReps even in
    // quick mode — one sample of a contended handoff is gate noise.
    const double ms = median_ms(kReps, [&] {
      auto ping = make_counter(std::string_view(spec));
      auto pong = make_counter(std::string_view(spec));
      multithreaded_block(
          [&] {
            for (counter_value_t i = 1; i <= handoffs; ++i) {
              ping->Increment(1);
              pong->Check(i);
            }
          },
          [&] {
            for (counter_value_t i = 1; i <= handoffs; ++i) {
              ping->Check(i);
              pong->Increment(1);
            }
          });
    });
    table.add_row({spec, cell(ms),
                   cell(ms * 1000.0 / static_cast<double>(handoffs), 2)});
    const auto probe = make_counter(std::string_view(spec));
    g_json.record("handoff", spec, 2,
                  ms * 1e6 / static_cast<double>(handoffs),
                  probe->stripe_count());
  }
  bench::print(table);
}

void poison_wake_latency() {
  banner("E10.e", "poison wake latency: Poison() -> last waiter resumed");
  note("Waiters park at distinct levels the counter never reaches; the\n"
       "controller poisons and the clock stops when the last waiter has\n"
       "unwound with CounterPoisonedError.  The failure path inherits\n"
       "each implementation's wake mechanism, so the ordering should\n"
       "track E10.c: spin resumes by polling, futex/cv pay a syscall\n"
       "per released level, single-cv broadcasts once.");
  TextTable table({"impl", "waiters=1", "w=4", "w=16", "w=64"});
  constexpr int kWaiterCounts[] = {1, 4, 16, 64};
  for (CounterKind kind : all_counter_kinds()) {
    std::vector<std::string> row{std::string(to_string(kind))};
    for (const int waiters : kWaiterCounts) {
      // Unlike the other rows the interval of interest starts inside
      // the rep (after all waiters are parked), so each rep clocks
      // itself and we take the median of the returned samples.
      std::vector<double> samples;
      samples.reserve(kReps);
      for (int rep = 0; rep < kReps; ++rep) {
        auto c = make_counter(kind);
        std::atomic<int> parked{0};
        std::atomic<int> unwound{0};
        std::vector<std::thread> threads;
        threads.reserve(waiters);
        for (int w = 0; w < waiters; ++w) {
          threads.emplace_back([&, w] {
            parked.fetch_add(1, std::memory_order_relaxed);
            try {
              c->Check(static_cast<counter_value_t>(1 + w % 8));
            } catch (const CounterPoisonedError&) {
              unwound.fetch_add(1, std::memory_order_relaxed);
            }
          });
        }
        // Wait until every waiter is structurally suspended, so the
        // measurement is wake latency, not thread-spawn latency.
        while (c->stats().suspensions <
               static_cast<std::uint64_t>(waiters)) {
          std::this_thread::yield();
        }
        const auto t0 = std::chrono::steady_clock::now();
        c->Poison(std::make_exception_ptr(
            std::runtime_error("bench poison")));
        while (unwound.load(std::memory_order_relaxed) < waiters) {
          std::this_thread::yield();
        }
        const auto t1 = std::chrono::steady_clock::now();
        for (auto& t : threads) t.join();
        samples.push_back(
            std::chrono::duration<double, std::milli>(t1 - t0).count());
      }
      std::sort(samples.begin(), samples.end());
      row.push_back(cell(samples[samples.size() / 2], 3));
    }
    table.add_row(std::move(row));
  }
  bench::print(table);
}

void overload_storm() {
  const int kWaiters = g_quick ? 512 : 10000;
  banner("E12", "overload storm: " + std::to_string(kWaiters) +
                    " waiters vs max_waiters=256, per overload policy");
  note("Every thread Check()s a level the counter only reaches after the\n"
       "storm has fully formed.  kThrow sheds the excess as\n"
       "CounterOverloadedError; kBlockIncrementers parks it on the\n"
       "admission gate.  'max parked' is the sleeping-waiter high-water\n"
       "mark and must never exceed the cap.");
  TextTable table({"spec", "ms", "rejected", "max parked"});
  const std::vector<std::string> specs = {
      "pooled:256+hybrid,max_waiters=256",
      "pooled:256+list,max_waiters=256,overload=block",
  };
  for (const std::string& spec : specs) {
    auto c = make_counter(std::string_view(spec));
    std::atomic<int> rejected{0};
    const auto t0 = std::chrono::steady_clock::now();
    std::vector<std::thread> threads;
    threads.reserve(static_cast<std::size_t>(kWaiters));
    for (int w = 0; w < kWaiters; ++w) {
      threads.emplace_back([&] {
        try {
          c->Check(1);
        } catch (const CounterOverloadedError&) {
          rejected.fetch_add(1, std::memory_order_relaxed);
        }
      });
    }
    // Let the storm form before the release, so the admission path —
    // not thread-spawn jitter — decides each waiter's fate.
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    c->Increment(1);
    for (auto& t : threads) t.join();
    const auto t1 = std::chrono::steady_clock::now();
    const double ms =
        std::chrono::duration<double, std::milli>(t1 - t0).count();
    const auto s = c->stats();
    table.add_row({spec, cell(ms), cell(rejected.load()),
                   cell(s.max_live_waiters)});
    g_json.record("overload_storm", spec, kWaiters,
                  ms * 1e6 / static_cast<double>(kWaiters),
                  c->stripe_count());
  }
  bench::print(table);
}

void overload_storm_scaled() {
  const std::size_t kArmed = g_quick ? 10'000 : 1'000'000;
  banner("E12.b", "scaled storm: " + std::to_string(kArmed) +
                      " open-loop armed waiters, 1 vs 8 index shards");
  note("Past ~10k the storm cannot be real threads; each armed waiter\n"
       "is an OnReach registration at its own level — the same level-\n"
       "index node a parked thread would hold.  The index arms in\n"
       "O(log L); the single Increment releases all L levels ascending\n"
       "in one bulk pass.  'hybrid' is the default one shard;\n"
       "'waitplane=heap:8' splits the levels over eight shards: this\n"
       "bulk wake is the row where more than one shard wins.");
  TextTable table({"spec", "arm ms", "wake ms", "ns/wake"});
  for (const char* spec : {"hybrid", "hybrid,waitplane=heap:8"}) {
    auto c = make_counter(std::string_view(spec));
    std::atomic<std::size_t> fired{0};
    const auto t0 = std::chrono::steady_clock::now();
    for (std::size_t i = 1; i <= kArmed; ++i) {
      c->OnReach(static_cast<counter_value_t>(i),
                 [&fired] { fired.fetch_add(1, std::memory_order_relaxed); });
    }
    const auto t1 = std::chrono::steady_clock::now();
    c->Increment(static_cast<counter_value_t>(kArmed));
    const auto t2 = std::chrono::steady_clock::now();
    if (fired.load(std::memory_order_relaxed) != kArmed) {
      throw std::runtime_error("scaled storm lost a waiter");
    }
    const double arm_ms =
        std::chrono::duration<double, std::milli>(t1 - t0).count();
    const double wake_ms =
        std::chrono::duration<double, std::milli>(t2 - t1).count();
    const double ns_per_wake =
        wake_ms * 1e6 / static_cast<double>(kArmed);
    table.add_row({spec, cell(arm_ms), cell(wake_ms), cell(ns_per_wake, 1)});
    g_json.record_levels("overload_storm_scaled", spec, 1, ns_per_wake,
                         c->stripe_count(), kArmed);
  }
  bench::print(table);
}

void wait_plane_scaling() {
  banner("E13", "level-index scaling: marginal arm + bulk wake vs live levels");
  note("L live levels are built by open-loop OnReach arming (descending:\n"
       "the order in which §7's ordered list inserts at its head).  'arm\n"
       "us' is the marginal cost of arming a fresh interior level, an\n"
       "O(log(L/S)) sift in one of S shards.  'wake ns' is the per-level\n"
       "cost of the one Increment that releases everything.  'hybrid'\n"
       "is the default one shard, 'waitplane=heap:8' eight shards.");
  TextTable table({"impl", "levels", "build ms", "arm us", "wake ns"});
  const std::vector<std::size_t> sizes =
      g_quick ? std::vector<std::size_t>{1'000, 10'000}
              : std::vector<std::size_t>{1'000, 10'000, 100'000, 1'000'000};
  constexpr int kProbes = 16;
  // One wake is a single Increment, so a lone cycle is one sample of a
  // noisy clock; the committed rows are the median of kCycles fresh
  // build-probe-wake cycles per (size, spec) cell.
  constexpr int kCycles = 3;
  const auto median_of = [](std::vector<double>& v) {
    std::sort(v.begin(), v.end());
    return v[v.size() / 2];
  };
  for (const std::size_t levels : sizes) {
    for (const char* spec : {"hybrid", "hybrid,waitplane=heap:8"}) {
      std::vector<double> builds, arms, wakes;
      std::size_t stripes = 1;
      for (int cycle = 0; cycle < kCycles; ++cycle) {
        auto c = make_counter(std::string_view(spec));
        stripes = c->stripe_count();
        std::atomic<std::size_t> fired{0};
        const auto cb = [&fired] {
          fired.fetch_add(1, std::memory_order_relaxed);
        };
        // Live levels sit at even values; probes use odd values so
        // each lands at a fresh interior position.
        const auto t0 = std::chrono::steady_clock::now();
        for (std::size_t i = levels; i >= 1; --i) {
          c->OnReach(static_cast<counter_value_t>(2 * i), cb);
        }
        const auto t1 = std::chrono::steady_clock::now();
        std::uint64_t rng = 0x9e3779b97f4a7c15ull;  // fixed-seed splitmix64
        const auto t2 = std::chrono::steady_clock::now();
        for (int p = 0; p < kProbes; ++p) {
          rng += 0x9e3779b97f4a7c15ull;
          std::uint64_t z = rng;
          z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
          z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
          z ^= z >> 31;
          const counter_value_t probe =
              static_cast<counter_value_t>(2 * (z % levels) + 1);
          c->OnReach(probe, cb);
        }
        const auto t3 = std::chrono::steady_clock::now();
        c->Increment(static_cast<counter_value_t>(2 * levels + 1));
        const auto t4 = std::chrono::steady_clock::now();
        if (fired.load(std::memory_order_relaxed) != levels + kProbes) {
          throw std::runtime_error("E13 lost a waiter");
        }
        builds.push_back(
            std::chrono::duration<double, std::milli>(t1 - t0).count());
        arms.push_back(
            std::chrono::duration<double, std::micro>(t3 - t2).count() /
            kProbes);
        wakes.push_back(
            std::chrono::duration<double, std::nano>(t4 - t3).count() /
            static_cast<double>(levels + kProbes));
      }
      const double build_ms = median_of(builds);
      const double arm_us = median_of(arms);
      const double wake_ns = median_of(wakes);
      table.add_row({spec, cell(levels), cell(build_ms), cell(arm_us, 2),
                     cell(wake_ns, 1)});
      g_json.record_levels("wait_arm", spec, 1, arm_us * 1000.0, stripes,
                           levels);
      g_json.record_levels("wait_wake", spec, 1, wake_ns, stripes, levels);
    }
  }
  bench::print(table);
}

// --- E15: the completion plane ---------------------------------------

// One logical waiter as a coroutine frame: suspends on the level,
// bumps the tally when resumed.  The frame plus its await state is the
// entire per-waiter footprint — no stack, no kernel object.
DetachedTask bench_await_one(AnyCounter& c, counter_value_t level,
                             std::atomic<std::size_t>& fired) {
  co_await reach(c, level);
  fired.fetch_add(1, std::memory_order_relaxed);
}

void completion_scaling() {
  banner("E15", "logical-waiter scaling: co_await / OnReach / parked threads");
  note("The same wait — N waiters at N distinct levels, one bulk\n"
       "release — expressed three ways.  co_await and OnReach arm level-\n"
       "index callback nodes (bytes per waiter), so they scale to 10^6;\n"
       "parked threads carry megabytes of stack each, so that row stops\n"
       "at 1000 and exists to show WHY the completion plane is the cheap\n"
       "way to be a million waiters.");
  TextTable table({"waiter", "count", "arm us", "wake ns"});
  const std::size_t big = g_quick ? 10'000 : 1'000'000;
  const char* spec = "hybrid,waitplane=heap:8";
  for (const char* mode : {"coawait", "onreach"}) {
    auto c = make_counter(std::string_view(spec));
    std::atomic<std::size_t> fired{0};
    const auto t0 = std::chrono::steady_clock::now();
    // Descending arming, matching E13's O(1)-insert discipline.
    for (std::size_t i = big; i >= 1; --i) {
      if (mode[0] == 'c') {
        bench_await_one(*c, static_cast<counter_value_t>(i), fired);
      } else {
        c->OnReach(static_cast<counter_value_t>(i),
                   [&fired] { fired.fetch_add(1, std::memory_order_relaxed); });
      }
    }
    const auto t1 = std::chrono::steady_clock::now();
    c->Increment(static_cast<counter_value_t>(big));
    const auto t2 = std::chrono::steady_clock::now();
    if (fired.load(std::memory_order_relaxed) != big) {
      throw std::runtime_error("E15 lost a waiter");
    }
    const double arm_us =
        std::chrono::duration<double, std::micro>(t1 - t0).count() /
        static_cast<double>(big);
    const double wake_ns =
        std::chrono::duration<double, std::nano>(t2 - t1).count() /
        static_cast<double>(big);
    table.add_row({mode, cell(big), cell(arm_us, 2), cell(wake_ns, 1)});
    g_json.record_levels("complete_arm", mode, 1, arm_us * 1000.0, 1, big);
    g_json.record_levels("complete_wake", mode, 1, wake_ns, 1, big);
  }
  {
    const std::size_t nthreads = g_quick ? 128 : 1'000;
    auto c = make_counter(std::string_view("hybrid"));
    const auto t0 = std::chrono::steady_clock::now();
    std::vector<std::thread> threads;
    threads.reserve(nthreads);
    for (std::size_t i = 1; i <= nthreads; ++i) {
      threads.emplace_back(
          [&c, i] { c->Check(static_cast<counter_value_t>(i)); });
    }
    const auto t1 = std::chrono::steady_clock::now();
    c->Increment(static_cast<counter_value_t>(nthreads));
    for (auto& t : threads) t.join();
    const auto t2 = std::chrono::steady_clock::now();
    const double arm_us =
        std::chrono::duration<double, std::micro>(t1 - t0).count() /
        static_cast<double>(nthreads);
    const double wake_ns =
        std::chrono::duration<double, std::nano>(t2 - t1).count() /
        static_cast<double>(nthreads);
    table.add_row({"thread", cell(nthreads), cell(arm_us, 2),
                   cell(wake_ns, 1)});
    g_json.record_levels("complete_arm", "thread", 1, arm_us * 1000.0, 1,
                         nthreads);
    g_json.record_levels("complete_wake", "thread", 1, wake_ns, 1, nthreads);
  }
  bench::print(table);
}

void slow_callback_interference() {
  banner("E15.b", "slow (1 ms) OnReach callback: incrementer interference");
  note("Every level 1..N carries a 1 ms callback.  Inline delivery bills\n"
       "the millisecond to the incrementing thread; executor=pool:1 hands\n"
       "the chain to a worker, so Increment's cost returns to the\n"
       "no-callback baseline (the 'none' row).");
  TextTable table({"delivery", "inc us"});
  const int kOps = g_quick ? 20 : 200;
  struct Leg {
    const char* label;
    const char* spec;
    bool arm;
  };
  for (const Leg leg : {Leg{"none", "hybrid", false},
                        Leg{"inline", "hybrid", true},
                        Leg{"pool:1", "hybrid,executor=pool:1", true}}) {
    auto c = make_counter(std::string_view(leg.spec));
    if (leg.arm) {
      for (int i = 1; i <= kOps; ++i) {
        c->OnReach(static_cast<counter_value_t>(i), [] {
          std::this_thread::sleep_for(std::chrono::milliseconds(1));
        });
      }
    }
    const auto t0 = std::chrono::steady_clock::now();
    for (int i = 0; i < kOps; ++i) c->Increment(1);
    const auto t1 = std::chrono::steady_clock::now();
    const double inc_us =
        std::chrono::duration<double, std::micro>(t1 - t0).count() / kOps;
    table.add_row({leg.label, cell(inc_us, 2)});
    g_json.record("slow_cb_increment", leg.label, 1, inc_us * 1000.0, 1);
    // The pool leg's counter still owns ~kOps queued milliseconds of
    // callback; its destructor drains them before the next leg runs.
  }
  bench::print(table);
}

}  // namespace
}  // namespace monotonic

int main(int argc, char** argv) {
  const auto cli = monotonic::bench::consume_common_flags(&argc, argv);
  monotonic::g_quick = cli.quick;
  monotonic::g_json = monotonic::bench::JsonlWriter(cli.json_path);
  if (!monotonic::g_quick) {
    // The slowest ablations add nothing to the smoke signal.
    monotonic::fw_ablation();
    monotonic::heat_ablation();
  }
  monotonic::handoff_ablation();
  if (!monotonic::g_quick) {
    monotonic::poison_wake_latency();
  }
  // Runs in quick mode too: --quick shrinks the storm to 512 waiters.
  monotonic::overload_storm();
  // E12.b scales the storm to 1M open-loop armed waiters (quick: 10k);
  // E13 charts arm/wake latency against the live-level count at 1 and
  // 8 index shards (quick caps the axis at 10^4).
  monotonic::overload_storm_scaled();
  monotonic::wait_plane_scaling();
  // E15: the completion plane — logical-waiter scaling and the
  // slow-callback interference ablation (quick shrinks both axes).
  monotonic::completion_scaling();
  monotonic::slow_callback_interference();
  return 0;
}

// bench_memory — experiment E6 (§7 storage claim + Figure 2 shape).
//
// "Although the number of different levels on which threads wait over
// the lifetime of the counter may be high, the number of levels at
// which threads are waiting at any given time is likely to be much
// lower."  The tables measure exactly that: lifetime distinct levels vs
// the live-node high-water mark, on synthetic shapes and on the real
// Floyd-Warshall run.

#include <thread>
#include <vector>

#include "bench_util.hpp"
#include "monotonic/algos/floyd_warshall.hpp"
#include "monotonic/algos/graph.hpp"
#include "monotonic/core/counter.hpp"
#include "monotonic/sync/latch.hpp"

namespace monotonic {
namespace {

using bench::banner;
using bench::note;

void synthetic_table() {
  banner("E6.a", "lifetime levels vs live levels (synthetic walkers)");
  note("L rounds; in round s, W walkers suspend on W distinct levels and\n"
       "the producer releases the round only once all W are parked.\n"
       "Lifetime distinct levels = W*L; the wait list never exceeds W\n"
       "nodes, and the pool makes total allocations ~W, not W*L.");
  TextTable table({"walkers", "rounds", "lifetime levels", "max live nodes",
                   "fresh allocations", "pool reuses"});
  for (std::size_t walkers : {2u, 4u, 8u}) {
    for (std::size_t rounds : {64u, 256u}) {
      Counter counter;
      {
        std::vector<std::jthread> threads;
        for (std::size_t w = 0; w < walkers; ++w) {
          threads.emplace_back([&, w] {
            // In round s, walker w waits on level s*W + w + 1.
            for (std::size_t s = 0; s < rounds; ++s) {
              counter.Check(s * walkers + w + 1);
            }
          });
        }
        for (std::size_t s = 0; s < rounds; ++s) {
          // Release the round only when all W walkers are suspended
          // (or have raced past: count their checks instead).
          while (counter.stats().checks < (s + 1) * walkers) {
            std::this_thread::yield();
          }
          counter.Increment(walkers);
        }
      }
      const auto st = counter.stats();
      table.add_row({cell(walkers), cell(rounds), cell(walkers * rounds),
                     cell(st.max_live_nodes),
                     cell(st.nodes_allocated - st.pool_hits),
                     cell(st.pool_hits)});
    }
  }
  bench::print(table);
}

void fw_table() {
  banner("E6.b", "Floyd-Warshall: N lifetime levels, <=threads live");
  TextTable table({"N", "threads", "lifetime levels", "max live nodes",
                   "max live waiters", "pool hits"});
  for (std::size_t n : {64u, 128u, 256u}) {
    for (std::size_t threads : {2u, 4u, 8u}) {
      const auto edges = random_graph(n, {.seed = 40 + n});
      FwOptions options;
      options.num_threads = threads;
      Counter counter;
      (void)fw_counter_with(edges, options, counter);
      const auto s = counter.stats();
      table.add_row({cell(n), cell(threads), cell(n - 1),
                     cell(s.max_live_nodes), cell(s.max_live_waiters),
                     cell(s.pool_hits)});
    }
  }
  bench::print(table);
}

void figure2_table() {
  banner("E6.c", "Figure 2 trace (value, [level:waiters])");
  Counter c;
  TextTable table({"step", "operation", "value", "wait list"});
  auto snapshot_cell = [&] {
    std::string s;
    for (const auto& wl : c.debug_snapshot().wait_levels) {
      if (!s.empty()) s += " -> ";
      s += std::to_string(wl.level) + ":" + std::to_string(wl.waiters);
    }
    return s.empty() ? std::string("(empty)") : s;
  };
  auto wait_for_waiters = [&](std::size_t n) {
    for (;;) {
      std::size_t total = 0;
      for (const auto& wl : c.debug_snapshot().wait_levels) {
        total += wl.waiters;
      }
      if (total == n) return;
      std::this_thread::yield();
    }
  };

  table.add_row({"a", "construction", cell(c.debug_snapshot().value),
                 snapshot_cell()});
  std::jthread t1([&] { c.Check(5); });
  wait_for_waiters(1);
  table.add_row({"b", "T1: Check(5)", cell(c.debug_snapshot().value),
                 snapshot_cell()});
  std::jthread t2([&] { c.Check(9); });
  wait_for_waiters(2);
  table.add_row({"c", "T2: Check(9)", cell(c.debug_snapshot().value),
                 snapshot_cell()});
  std::jthread t3([&] { c.Check(5); });
  wait_for_waiters(3);
  table.add_row({"d", "T3: Check(5)", cell(c.debug_snapshot().value),
                 snapshot_cell()});
  c.Increment(7);
  t1.join();
  t3.join();
  table.add_row({"e-g", "T0: Increment(7); T1,T3 resume",
                 cell(c.debug_snapshot().value), snapshot_cell()});
  c.Increment(2);
  t2.join();
  table.add_row({"end", "T0: Increment(2); T2 resumes",
                 cell(c.debug_snapshot().value), snapshot_cell()});
  bench::print(table);
}

}  // namespace
}  // namespace monotonic

int main() {
  monotonic::synthetic_table();
  monotonic::fw_table();
  monotonic::figure2_table();
  return 0;
}

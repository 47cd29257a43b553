// counter_stats.hpp — structural instrumentation for counter implementations.
//
// The paper's §7 complexity claim — storage and time proportional to the
// number of *distinct levels with waiters*, not the number of waiting
// threads — cannot be validated from wall time alone on a single-core
// machine.  Every counter implementation therefore maintains these
// structural counters (relaxed atomics, negligible overhead), and the
// E5/E6 benches report them directly.
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "monotonic/support/config.hpp"
#include "monotonic/support/stat_block.hpp"
#include "monotonic/support/table.hpp"

namespace monotonic {

/// Every structural statistic, declared once (support/stat_block.hpp):
/// X(name, kind, arg).  CounterStats stores all but the last two; a
/// cross-process counter (shared_counter.hpp) fills those from its
/// segment header, and an in-process counter reports epoch 0, which is
/// how printers tell the families apart.
#define MONOTONIC_COUNTER_STATS(X)                                            \
  X(increments, kTotal, 0)           /* Increment() calls */                  \
  X(checks, kTotal, 0)               /* Check() calls */                      \
  X(fast_checks, kTotal, 0)          /* Check() satisfied without sleep */    \
  X(suspensions, kTotal, 0)          /* Check() calls that slept */           \
  X(wakeups, kTotal, 0)              /* threads woken by Increment() */       \
  X(notifies, kTotal, 0)             /* condvar notify_all calls issued */    \
  X(nodes_allocated, kTotal, 0)      /* wait nodes created (incl reuse) */    \
  X(live_nodes, kLevel, 0)           /* wait nodes linked or waited on */     \
  X(max_live_nodes, kPeak, live_nodes)                                        \
  X(live_waiters, kLevel, 0)         /* threads sleeping in a Check */        \
  X(max_live_waiters, kPeak, live_waiters)                                    \
  X(spurious_wakeups, kTotal, 0)     /* woken with predicate still false */   \
  X(poisons, kTotal, 0)              /* Poison() calls that took effect */    \
  X(aborted_wakeups, kTotal, 0)      /* waiters woken by Poison */            \
  X(cancelled_checks, kTotal, 0)     /* Check(level, stop) cancelled */       \
  X(dropped_increments, kTotal, 0)   /* increments on a poisoned counter */   \
  X(stall_reports, kTotal, 0)        /* watchdog reports emitted */           \
  X(fast_path_increments, kTotal, 0) /* increments that skipped the lock */   \
  X(collapses, kTotal, 0)            /* striped-plane sums under the lock */  \
  X(timed_out_checks, kTotal, 0)     /* CheckFor/CheckUntil deadlines */      \
  X(overload_rejections, kTotal, 0)  /* waiters turned away by admission */   \
  X(pool_hits, kTotal, 0)            /* node allocations the pool served */   \
  X(pool_misses, kTotal, 0)          /* node allocations from the heap */     \
  X(stripe_count, kConfig, 1)        /* value-plane stripes (1 = plain) */    \
  X(bulk_wakes, kTotal, 0)           /* releases that woke 2+ levels */       \
  X(index_depth, kPeak, kNoStat)     /* deepest level-index shard heap */     \
  X(wait_shard_count, kConfig, 1)    /* level-index shards (1 = plain) */     \
  X(predicate_checks, kTotal, 0)     /* Check(pred) calls */                  \
  X(async_completions, kTotal, 0)    /* reached chains posted */              \
  X(participant_deaths, kTotal, 0)   /* deaths seen, segment lifetime */      \
  X(epoch, kConfig, 0)               /* shared epoch (0 = in-process) */

/// Plain-value snapshot of CounterStats, safe to copy and compare.
struct CounterStatsSnapshot {
  MONOTONIC_COUNTER_STATS(MONOTONIC_STAT_FIELD)
};

MONOTONIC_STAT_LIST(CounterStatsSnapshot, MONOTONIC_COUNTER_STATS);
using CounterStat = StatList<CounterStatsSnapshot>;

/// A counter's statistics block, with one method per engine event.
/// All mutators are relaxed: these are diagnostics, not
/// synchronization.
class CounterStats
    : public StatBlock<CounterStatsSnapshot, CounterStat::participant_deaths> {
 public:
  void on_increment() noexcept { add(CounterStat::increments); }
  void on_check() noexcept { add(CounterStat::checks); }
  void on_fast_check() noexcept { add(CounterStat::fast_checks); }
  void on_spurious_wakeup() noexcept { add(CounterStat::spurious_wakeups); }
  void on_notify() noexcept { add(CounterStat::notifies); }
  void on_poison() noexcept { add(CounterStat::poisons); }
  void on_cancelled_check() noexcept { add(CounterStat::cancelled_checks); }
  void on_dropped_increment() noexcept {
    add(CounterStat::dropped_increments);
  }
  void on_stall_report() noexcept { add(CounterStat::stall_reports); }
  void on_fast_increment() noexcept { add(CounterStat::fast_path_increments); }
  void on_collapse() noexcept { add(CounterStat::collapses); }
  void on_timed_out_check() noexcept { add(CounterStat::timed_out_checks); }
  void on_overload_rejection() noexcept {
    add(CounterStat::overload_rejections);
  }
  void on_predicate_check() noexcept { add(CounterStat::predicate_checks); }
  void on_async_completion() noexcept { add(CounterStat::async_completions); }

  /// Configuration, recorded by striped value planes at construction
  /// so snapshots and printers can tell sharded counters apart.
  void set_stripe_count(std::uint64_t n) noexcept {
    set(CounterStat::stripe_count, n);
  }
  /// Configuration: the level index's resolved shard count.
  void set_wait_shard_count(std::uint64_t n) noexcept {
    set(CounterStat::wait_shard_count, n);
  }
  /// A release pass (Increment's release_prefix or Poison's abort_all)
  /// that woke two or more levels in one sweep — the level index's
  /// bulk-wake path.
  void on_bulk_wake() noexcept { add(CounterStat::bulk_wakes); }
  /// High-water mark of a wait-plane shard's heap depth (floor(log2 n)
  /// + 1) — the O(log L) the index's complexity claim is about.
  void on_index_depth(std::uint64_t depth) noexcept {
    raise(CounterStat::index_depth, depth);
  }
  void on_wakeups(std::uint64_t n) noexcept { add(CounterStat::wakeups, n); }
  void on_aborted_wakeups(std::uint64_t n) noexcept {
    add(CounterStat::wakeups, n);
    add(CounterStat::aborted_wakeups, n);
  }

  void on_node_allocated(bool from_pool) noexcept {
    add(CounterStat::nodes_allocated);
    add(from_pool ? CounterStat::pool_hits : CounterStat::pool_misses);
    raise(CounterStat::max_live_nodes, add(CounterStat::live_nodes));
  }
  void on_node_freed() noexcept { sub(CounterStat::live_nodes); }

  void on_suspend() noexcept {
    add(CounterStat::suspensions);
    raise(CounterStat::max_live_waiters, add(CounterStat::live_waiters));
  }
  void on_resume() noexcept { sub(CounterStat::live_waiters); }
};

/// Renders labelled snapshots as an aligned table.  Built on TextTable,
/// whose columns auto-size to their widest cell — counts past 7 digits
/// (stress runs) widen the column instead of shearing it, which the
/// old fixed-width printf formats got wrong.  The stripe columns
/// (stripes / collapses / fast incs) appear only when at least one row
/// is sharded, and the level-index columns (wshards / depth / bulk
/// wakes) only when at least one row has a sharded index or has
/// parked a waiter; other tables keep their familiar shape.  Within an extended table, rows
/// the extra columns do not apply to print "-" instead of a misleading
/// zero-padded value.
TextTable counter_stats_table(
    const std::vector<std::pair<std::string, CounterStatsSnapshot>>& rows);

}  // namespace monotonic

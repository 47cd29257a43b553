#include "monotonic/core/counter_stats.hpp"

namespace monotonic {

CounterStatsSnapshot CounterStats::snapshot() const noexcept {
  CounterStatsSnapshot s;
#if MONOTONIC_ENABLE_STATS
  s.increments = increments_.load(std::memory_order_relaxed);
  s.checks = checks_.load(std::memory_order_relaxed);
  s.fast_checks = fast_checks_.load(std::memory_order_relaxed);
  s.suspensions = suspensions_.load(std::memory_order_relaxed);
  s.wakeups = wakeups_.load(std::memory_order_relaxed);
  s.notifies = notifies_.load(std::memory_order_relaxed);
  s.nodes_allocated = nodes_allocated_.load(std::memory_order_relaxed);
  s.nodes_pooled = nodes_pooled_.load(std::memory_order_relaxed);
  s.live_nodes = live_nodes_.load(std::memory_order_relaxed);
  s.max_live_nodes = max_live_nodes_.load(std::memory_order_relaxed);
  s.max_live_waiters = max_live_waiters_.load(std::memory_order_relaxed);
  s.spurious_wakeups = spurious_wakeups_.load(std::memory_order_relaxed);
  s.poisons = poisons_.load(std::memory_order_relaxed);
  s.aborted_wakeups = aborted_wakeups_.load(std::memory_order_relaxed);
  s.cancelled_checks = cancelled_checks_.load(std::memory_order_relaxed);
  s.dropped_increments = dropped_increments_.load(std::memory_order_relaxed);
  s.stall_reports = stall_reports_.load(std::memory_order_relaxed);
  s.fast_path_increments =
      fast_path_increments_.load(std::memory_order_relaxed);
  s.collapses = collapses_.load(std::memory_order_relaxed);
  s.timed_out_checks = timed_out_checks_.load(std::memory_order_relaxed);
  s.overload_rejections = overload_rejections_.load(std::memory_order_relaxed);
  s.pool_hits = pool_hits_.load(std::memory_order_relaxed);
  s.pool_misses = pool_misses_.load(std::memory_order_relaxed);
  s.bulk_wakes = bulk_wakes_.load(std::memory_order_relaxed);
  s.index_depth = index_depth_.load(std::memory_order_relaxed);
  s.predicate_checks = predicate_checks_.load(std::memory_order_relaxed);
  s.async_completions = async_completions_.load(std::memory_order_relaxed);
#endif
  // Configuration, not counters: reported even with stats compiled out.
  s.stripe_count = stripe_count_.load(std::memory_order_relaxed);
  s.wait_shard_count = wait_shard_count_.load(std::memory_order_relaxed);
  return s;
}

void CounterStats::reset() noexcept {
#if MONOTONIC_ENABLE_STATS
  increments_.store(0, std::memory_order_relaxed);
  checks_.store(0, std::memory_order_relaxed);
  fast_checks_.store(0, std::memory_order_relaxed);
  suspensions_.store(0, std::memory_order_relaxed);
  wakeups_.store(0, std::memory_order_relaxed);
  notifies_.store(0, std::memory_order_relaxed);
  nodes_allocated_.store(0, std::memory_order_relaxed);
  nodes_pooled_.store(0, std::memory_order_relaxed);
  // live_nodes_ / live_waiters_ are levels, not totals; do not reset.
  max_live_nodes_.store(live_nodes_.load(std::memory_order_relaxed),
                        std::memory_order_relaxed);
  max_live_waiters_.store(live_waiters_.load(std::memory_order_relaxed),
                          std::memory_order_relaxed);
  spurious_wakeups_.store(0, std::memory_order_relaxed);
  poisons_.store(0, std::memory_order_relaxed);
  aborted_wakeups_.store(0, std::memory_order_relaxed);
  cancelled_checks_.store(0, std::memory_order_relaxed);
  dropped_increments_.store(0, std::memory_order_relaxed);
  stall_reports_.store(0, std::memory_order_relaxed);
  fast_path_increments_.store(0, std::memory_order_relaxed);
  collapses_.store(0, std::memory_order_relaxed);
  timed_out_checks_.store(0, std::memory_order_relaxed);
  overload_rejections_.store(0, std::memory_order_relaxed);
  pool_hits_.store(0, std::memory_order_relaxed);
  pool_misses_.store(0, std::memory_order_relaxed);
  bulk_wakes_.store(0, std::memory_order_relaxed);
  index_depth_.store(0, std::memory_order_relaxed);
  predicate_checks_.store(0, std::memory_order_relaxed);
  async_completions_.store(0, std::memory_order_relaxed);
  // stripe_count_ / wait_shard_count_ are configuration, not counters;
  // they survive reset.
#endif
}

TextTable counter_stats_table(
    const std::vector<std::pair<std::string, CounterStatsSnapshot>>& rows) {
  // A row is "value-sharded" when its plane has stripes, "wait-indexed"
  // when its level index has more than one shard or a recorded depth
  // (it has parked a waiter).  Each column
  // group appears only when at least one row needs it, and within an
  // extended table, rows a group does not apply to print "-" instead
  // of a zero that reads like a measurement.
  const auto value_sharded = [](const CounterStatsSnapshot& s) {
    return s.stripe_count > 1;
  };
  const auto wait_indexed = [](const CounterStatsSnapshot& s) {
    return s.wait_shard_count > 1 || s.index_depth > 0;
  };
  // Cross-process rows (shared_counter.hpp) carry a nonzero epoch.
  const auto cross_process = [](const CounterStatsSnapshot& s) {
    return s.epoch > 0;
  };
  bool any_sharded = false;
  bool any_indexed = false;
  bool any_shared = false;
  for (const auto& [label, s] : rows) {
    if (value_sharded(s)) any_sharded = true;
    if (wait_indexed(s)) any_indexed = true;
    if (cross_process(s)) any_shared = true;
  }
  std::vector<std::string> header = {"counter",     "increments", "checks",
                                     "fast checks", "suspensions", "wakeups",
                                     "notifies",    "spurious"};
  if (any_sharded) {
    header.insert(header.end(), {"stripes", "collapses", "fast incs"});
  }
  if (any_indexed) {
    header.insert(header.end(), {"wshards", "depth", "bulk wakes"});
  }
  if (any_shared) {
    header.insert(header.end(), {"epoch", "deaths"});
  }
  TextTable table(std::move(header));
  for (const auto& [label, s] : rows) {
    std::vector<std::string> row = {
        label,           cell(s.increments), cell(s.checks),
        cell(s.fast_checks), cell(s.suspensions), cell(s.wakeups),
        cell(s.notifies), cell(s.spurious_wakeups)};
    if (any_sharded) {
      if (value_sharded(s)) {
        row.push_back(cell(s.stripe_count));
        row.push_back(cell(s.collapses));
        row.push_back(cell(s.fast_path_increments));
      } else {
        row.insert(row.end(), {"-", "-", "-"});
      }
    }
    if (any_indexed) {
      if (wait_indexed(s)) {
        row.push_back(cell(s.wait_shard_count));
        row.push_back(cell(s.index_depth));
        row.push_back(cell(s.bulk_wakes));
      } else {
        row.insert(row.end(), {"-", "-", "-"});
      }
    }
    if (any_shared) {
      if (cross_process(s)) {
        row.push_back(cell(s.epoch));
        row.push_back(cell(s.participant_deaths));
      } else {
        row.insert(row.end(), {"-", "-"});
      }
    }
    table.add_row(std::move(row));
  }
  return table;
}

}  // namespace monotonic

#include "monotonic/core/counter_stats.hpp"

namespace monotonic {

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

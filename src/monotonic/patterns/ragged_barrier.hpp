// ragged_barrier.hpp — §5.1's "ragged barrier" as a reusable component.
//
//   "With a ragged barrier, each thread waits at the barrier point only
//    until its own individual data dependencies have been satisfied,
//    instead of until the data dependencies of all threads have been
//    satisfied."
//
// One counter per party; a party *arrives* by incrementing its own
// counter and waits only on the counters of the parties it actually
// depends on.  Unlike a barrier's single N-way rendezvous, parties can
// run many phases apart, bounded only by the dependency structure.
//
// The counter array is the pattern's only state, confirming §5.1's cost
// note: "the number of counters needed is proportional to the number of
// threads, not to the problem size."
#pragma once

#include <cstddef>
#include <vector>

#include "monotonic/core/counter_stats.hpp"

#include "monotonic/core/counter_concept.hpp"
#include "monotonic/core/hybrid_counter.hpp"
#include "monotonic/support/assert.hpp"
#include "monotonic/support/cache.hpp"
#include "monotonic/support/config.hpp"

namespace monotonic {

/// Pairwise-dependency barrier over `parties` participants.  Arrivals
/// default to the sharded hybrid ("sharded+hybrid") so a party whose
/// dependents are running ahead ticks its counter without touching the
/// wait-plane mutex; only ticks that release a parked dependent
/// collapse the stripes.
template <CounterLike C = ShardedHybridCounter>
class RaggedBarrier {
 public:
  explicit RaggedBarrier(std::size_t parties) : counters_(parties) {
    MC_REQUIRE(parties >= 1, "ragged barrier needs at least one party");
  }
  RaggedBarrier(const RaggedBarrier&) = delete;
  RaggedBarrier& operator=(const RaggedBarrier&) = delete;

  /// Party `i` announces progress (one phase tick).
  void arrive(std::size_t i) { counter(i).Increment(1); }

  /// Blocks until party `i` has arrived at least `ticks` times.
  void wait_for(std::size_t i, counter_value_t ticks) {
    counter(i).Check(ticks);
  }

  /// Pre-satisfies a party's dependencies for all phases, e.g. the
  /// constant boundary cells in §5.1's heat simulation:
  ///   c[0].Increment(2*numSteps); c[N-1].Increment(2*numSteps);
  void preload(std::size_t i, counter_value_t ticks) {
    counter(i).Increment(ticks);
  }

  std::size_t parties() const noexcept { return counters_.size(); }

  C& counter(std::size_t i) {
    MC_REQUIRE(i < counters_.size(), "party index out of range");
    return counters_[i].value;
  }

  /// Structural stats merged over all party counters (merge_stats):
  /// totals and live levels summed, high-water marks and configuration
  /// the maximum over parties.  Only available when C is instrumented.
  CounterStatsSnapshot aggregate_stats() const
    requires requires(const C& c) { c.stats(); }
  {
    CounterStatsSnapshot total;
    for (const auto& slot : counters_) merge_stats(total, slot.value.stats());
    return total;
  }

 private:
  // Cache-line isolation: parties hammer their own counter every phase.
  std::vector<CacheAligned<C>> counters_;
};

}  // namespace monotonic

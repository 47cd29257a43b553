// barrier.hpp — N-way thread barriers (Lubachevsky [14]).
//
// The paper's §4.3 baseline is `Barrier b(numThreads); ... b.Pass();`.
// Three implementations share that API:
//
//   CentralBarrier — mutex + condition variable, sense-reversing.  The
//                    reference baseline; one suspension queue (§8).
//   AtomicBarrier  — sense-reversing busy-wait on an atomic flag.  For
//                    the barrier ablation bench; no kernel suspension.
//   TreeBarrier    — static combining tree of CentralBarriers, fan-in 2.
//                    Lowers contention on large N at the cost of depth.
//
// All three count passes and (where applicable) suspensions, feeding the
// queue-census experiment (E9) and the barrier-vs-counter comparisons
// (E1, E2).
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

#include "monotonic/support/cache.hpp"
#include "monotonic/support/spin_wait.hpp"

namespace monotonic {

/// Sense-reversing barrier on mutex + condition variable.
class CentralBarrier {
 public:
  /// A barrier for `parties` threads.  Every thread must call Pass()
  /// the same number of times; the barrier is reusable across rounds.
  explicit CentralBarrier(std::size_t parties);
  CentralBarrier(const CentralBarrier&) = delete;
  CentralBarrier& operator=(const CentralBarrier&) = delete;

  /// Blocks until all `parties` threads have called Pass() this round.
  void Pass();

  std::size_t parties() const noexcept { return parties_; }
  /// Completed rounds.
  std::uint64_t stat_rounds() const;
  /// Threads that actually suspended (total, over all rounds).
  std::uint64_t stat_suspensions() const;

 private:
  const std::size_t parties_;
  mutable std::mutex m_;
  std::condition_variable cv_;
  std::size_t arrived_ = 0;
  bool sense_ = false;  // flips each round
  std::uint64_t rounds_ = 0;
  std::uint64_t suspensions_ = 0;
};

/// Sense-reversing barrier on atomics with adaptive spin.  Suitable when
/// threads ≈ cores and rounds are short; pathological when oversubscribed.
class AtomicBarrier {
 public:
  explicit AtomicBarrier(std::size_t parties);
  AtomicBarrier(const AtomicBarrier&) = delete;
  AtomicBarrier& operator=(const AtomicBarrier&) = delete;

  void Pass();

  std::size_t parties() const noexcept { return parties_; }
  std::uint64_t stat_rounds() const noexcept {
    return rounds_.load(std::memory_order_relaxed);
  }

 private:
  const std::size_t parties_;
  std::atomic<std::size_t> arrived_{0};
  std::atomic<bool> sense_{false};
  std::atomic<std::uint64_t> rounds_{0};
};

/// Static binary combining tree of two-party central barriers.  Each
/// thread passes with a fixed `slot` in [0, parties); entry combines up
/// the tree, release broadcasts down.
class TreeBarrier {
 public:
  explicit TreeBarrier(std::size_t parties);
  TreeBarrier(const TreeBarrier&) = delete;
  TreeBarrier& operator=(const TreeBarrier&) = delete;

  /// Blocks slot `slot` until all parties arrive.  Unlike Pass(), the
  /// caller identifies itself; the tree shape is keyed on slots.
  void Pass(std::size_t slot);

  std::size_t parties() const noexcept { return parties_; }

 private:
  struct Node {
    std::mutex m;
    std::condition_variable cv;
    std::size_t arrived = 0;
    std::size_t expected = 0;
    bool sense = false;
  };

  void pass_node(std::size_t node_index);

  const std::size_t parties_;
  // Heap-layout tree: node i has children 2i+1, 2i+2; leaves map slots.
  std::vector<std::unique_ptr<Node>> nodes_;
};

}  // namespace monotonic

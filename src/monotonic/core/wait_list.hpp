// wait_list.hpp — the shared wait-engine underneath every counter
// implementation.
//
// §7 describes one data structure: "an ordered linked list of
// dynamically allocated nodes representing the counter levels on which
// threads are waiting".  Historically each counter implementation
// (list, single-cv, futex, spin, hybrid) re-implemented that list — or
// skipped it, losing introspection and timed waits.  This header
// factors the machinery out once:
//
//   * WaitList<Signal>   — the per-level node index: join-or-create,
//     prefix release, timed-waiter unlink, node pooling, and the
//     structural stats (§7's O(live levels) storage bound).  The
//     `Signal` type parameter is the per-node wake primitive a waiting
//     policy plugs in (a condition variable, a futex word, a spin
//     flag); the list itself never blocks or wakes anybody.
//
//     The nodes live in the level index (wait_index.hpp) rather than in
//     §7's linked list: per shard an intrusive array min-heap, plus a
//     level hash once more than a few levels are live, giving O(log L)
//     join-or-insert, O(S) min-level, and bulk release of all levels
//     <= value as an ascending peel.  One shard by default
//     (WaitListOptions::wait_shards picks more).  The §7 contract holds
//     at the API: waiters are released in ascending level order,
//     released nodes are exactly the set of levels <= value, and
//     storage stays O(live levels).
//
//   * CallbackList       — the OnReach async-check analogue: one node
//     per level with registered callbacks in the same kind of index,
//     released prefixes carried out of the lock and run there (CP.22).
//
// Every member function that touches list state requires the owning
// counter's mutex to be held; the classes are lock-agnostic on purpose
// (the hybrid/futex/spin policies only take that mutex on slow paths).
#pragma once

#include <algorithm>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <functional>
#include <memory>
#include <utility>
#include <vector>

#include "monotonic/core/completion.hpp"
#include "monotonic/core/counter_stats.hpp"
#include "monotonic/core/engine_env.hpp"
#include "monotonic/core/wait_index.hpp"
#include "monotonic/support/assert.hpp"
#include "monotonic/support/cache.hpp"
#include "monotonic/support/config.hpp"

namespace monotonic {

/// One ordered (level, waiters) pair per live wait node — the shape
/// Figure 2 draws, shared by every implementation's debug_snapshot().
struct DebugWaitLevel {
  counter_value_t level;
  std::size_t waiters;
};

/// Structural snapshot for tests and benches (Figure 2 reproduction).
/// Application code must not branch on this — see the no-probe rule.
struct CounterDebugSnapshot {
  counter_value_t value;
  std::vector<DebugWaitLevel> wait_levels;       // ascending by level
  std::vector<counter_value_t> callback_levels;  // ascending
};

/// Diagnostic snapshot handed to the stall watchdog: which level the
/// stuck waiter wants, how long it has been parked, the full wait-list
/// shape at the moment of the report, and how many shards the wait
/// index it is parked on has.
struct CounterStallReport {
  counter_value_t value;                    ///< current counter value
  counter_value_t level;                    ///< level the waiter wants
  std::chrono::milliseconds waited;         ///< how long it has waited
  std::vector<DebugWaitLevel> wait_levels;  ///< ascending, like Figure 2
  std::size_t wait_shards = 1;              ///< wait-index shards
};

/// What the engine does with a waiter that bounded admission
/// (WaitListOptions::max_waiters) turns away.  Uniform across all
/// five policies and both value planes — admission is
/// enforced by the engine at every park site, under the engine mutex,
/// before the wait list is touched.
enum class OverloadPolicy : std::uint8_t {
  /// Reject: the Check throws CounterOverloadedError.  Capacity frees
  /// as parked waiters are released, so retrying is legitimate.
  kThrow,
  /// Backpressure: the waiter parks at a capacity gate the engine
  /// already owns (a condvar under the engine mutex) until a slot
  /// frees.  Because gate waiters hold and re-take the engine mutex,
  /// incrementer slow paths queue behind the overload instead of
  /// racing ahead of it — the producers feel the backpressure.
  kBlockIncrementers,
};

/// Node-pooling and failure-diagnostic knobs, common to every policy.
struct WaitListOptions {
  /// Reuse freed wait nodes through an internal free list instead of
  /// returning them to the allocator.  On by default; the E5 bench
  /// ablates it.
  bool pool_nodes = true;
  /// Wait nodes constructed up front into the free list, so Check on a
  /// hot level never allocates in steady state (allocation-free once
  /// the working set of distinct levels fits the pool).  Zero by
  /// default — preallocation is opt-in, and it raises the pool's
  /// retention (recycle keeps max(WaitList::kPoolRetention,
  /// preallocated_nodes) nodes).  The spec factory exposes this as
  /// "pooled[:N]+".
  std::size_t preallocated_nodes = 0;
  /// Bounded admission: maximum threads parked in the wait list at
  /// once (0 = unlimited).  Excess waiters are handled per
  /// `overload_policy`.
  std::size_t max_waiters = 0;
  /// What to do with a waiter the bound above turns away.
  OverloadPolicy overload_policy = OverloadPolicy::kThrow;
  /// Stall watchdog: when > 0, an untimed Check parked longer than
  /// this emits a CounterStallReport through `on_stall` (and again
  /// every further interval), so a lost Increment surfaces as a
  /// diagnosable report instead of a silent hang.  Timed checks have
  /// their own deadlines and are exempt.
  std::chrono::milliseconds stall_report_after{0};
  /// Stall sink.  Called outside the counter lock; may log, alloc, or
  /// touch other counters.  Empty = a stderr one-liner.
  std::function<void(const CounterStallReport&)> on_stall;
  /// Striped value planes only: number of per-stripe cells.  0 = pick
  /// automatically from hardware_concurrency (rounded up to a power of
  /// two, clamped to [1, 64]).  Ignored by unsharded counters.
  std::size_t stripes = 0;
  /// Number of level shards in the wait and OnReach indexes (level % S
  /// picks the shard).  0 = 1 shard.  Spec token "waitplane=heap:S".
  std::size_t wait_shards = 0;
  /// Async completion plane (completion.hpp): where detached OnReach /
  /// predicate callback chains run.  Null (the default) delivers
  /// inline on the incrementing thread — bit-for-bit the pre-executor
  /// semantics.  A ThreadPoolExecutor moves slow callbacks off the
  /// incrementer entirely; poison delivery rides the same queue.
  /// Shared, not owned: one executor can drain many counters.  Spec
  /// token "executor=inline|pool[:N]".
  std::shared_ptr<CompletionExecutor> completion_executor;
};

/// The §7 wait plane.  `Signal` is the per-node wake primitive
/// supplied by the waiting policy; the list requires only that it is
/// default-constructible and has a `reset()` hook called on reuse.
/// `Env` (engine_env.hpp) supplies the schedule-point hook: the
/// structural transitions — a waiter joining a node, a prefix being
/// released, the poison sweep, the index linking or peeling a level —
/// are decision points the simulation harness interleaves at;
/// RealEngineEnv compiles them away.
template <typename Signal, typename Env = RealEngineEnv>
class WaitList {
 public:
  /// Freed nodes the pool keeps (more when preallocated_nodes is
  /// larger); the rest go back to the allocator.
  static constexpr std::size_t kPoolRetention = 64;

  // One node per distinct level with waiters (§7 / Figure 2):
  // {level, count, signal}.  Cache-line aligned: a node's signal is
  // hammered by its own waiters (futex word, spin flag, condvar state)
  // while neighbouring nodes' waiters hammer theirs — without the
  // alignment, pool-recycled nodes end up packed shoulder to shoulder
  // and every wake false-shares with the next level over.
  //
  // `next` links the pool free list; `heap_pos` is the level index's
  // intrusive back-link.  Policies never touch either — they see
  // level/waiters/released/aborted/signal only.
  struct alignas(kCacheLineSize) Node {
    counter_value_t level = 0;
    std::size_t waiters = 0;
    bool released = false;  // set when the node's waiters may resume
    bool aborted = false;   // wake cause: true = poisoned, not reached
    Signal signal;
    Node* next = nullptr;
    std::size_t heap_pos = 0;
  };

  WaitList(const WaitListOptions& options, CounterStats& stats)
      : options_(options), stats_(stats), index_(options.wait_shards) {
    stats_.set_wait_shard_count(index_.shard_count());
    // Preallocation failures surface here, at construction, where the
    // caller expects allocation — never later from a hot Check.  The
    // pool-disabled ablation (pool_nodes = false) preallocates nothing:
    // its point is that every acquire pays the allocator.
    if (!options_.pool_nodes) return;
    for (std::size_t i = 0; i < options_.preallocated_nodes; ++i) {
      Node* node = new Node();
      node->next = free_list_;
      free_list_ = node;
      ++pool_size_;
    }
  }

  /// Precondition: no live nodes (the owning counter checks and reports
  /// the misuse; reaching this dtor with waiters would be UB anyway).
  ~WaitList() { drain_pool(); }

  WaitList(const WaitList&) = delete;
  WaitList& operator=(const WaitList&) = delete;

  bool empty() const noexcept { return live_level_count_ == 0; }

  /// Resolved shard count of the level index.
  std::size_t wait_shard_count() const noexcept {
    return index_.shard_count();
  }

  /// Lowest level with a parked waiter, or kNoArmedLevel when none —
  /// O(S) across the shard heap roots.  Feeds the striped value plane's
  /// watermark: the value returned here is published seq_cst by the
  /// plane's rearm (striped_cells.hpp).
  counter_value_t min_level() const noexcept { return index_.min_level(); }

  /// Joins the queue for `level`, creating and linking a node if this
  /// is the first waiter at that level.  Registers the caller
  /// (++waiters) so the node cannot be freed underneath it.
  ///
  /// Strong exception guarantee: the operations that can throw — the
  /// node allocation and the index link (each preceded by
  /// Env::alloc_point, so injected faults cover every site) — run
  /// BEFORE any observable mutation, or unwind it — on throw the list,
  /// waiter counts and admission stats are exactly as before the call.
  /// The engine relies on this to translate the failure into
  /// CounterResourceError with the counter still usable.
  Node* acquire(counter_value_t level) {
    Env::point(SchedulePoint::kPark);
    Node* node = index_.find(level);  // join the existing queue, if any
    if (node == nullptr) {
      node = allocate_node(level);  // may throw; nothing mutated yet
      Env::point(SchedulePoint::kIndexLink);
      try {
        stats_.on_index_depth(index_.link(node, [] { Env::alloc_point(); }));
      } catch (...) {
        recycle(node);  // unwound to the pre-call state
        throw;
      }
      ++live_level_count_;
    }
    ++node->waiters;
    ++waiter_count_;
    return node;
  }

  /// Bounded-admission probe (engine mutex held): would admitting one
  /// more waiter exceed max_waiters?  Live levels never outnumber
  /// parked waiters, so this bound caps them too.
  bool admission_would_exceed() const {
    return options_.max_waiters != 0 && waiter_count_ >= options_.max_waiters;
  }

  /// True when the admission bound is configured — whether the engine
  /// needs to run admission control (and wake its capacity gate) at
  /// all.
  bool bounded() const noexcept { return options_.max_waiters != 0; }

  /// Registered waiters (threads) currently in the list.
  std::size_t waiter_count() const noexcept { return waiter_count_; }
  /// Linked (live) level nodes currently in the list.
  std::size_t live_level_count() const noexcept { return live_level_count_; }

  /// Deregisters a waiter.  The last waiter to leave frees the node
  /// (§7: "The thread that decrements the count to zero deallocates
  /// the node").  A released node was already unlinked by
  /// release_prefix; a timed-out waiter's node is still linked, so the
  /// last leaver unlinks it here — preserving the O(live levels)
  /// storage bound under timeouts.
  void leave(Node* node) {
    MC_ASSERT(node->waiters > 0, "leave() without matching acquire()");
    MC_ASSERT(waiter_count_ > 0, "waiter accounting underflow");
    --waiter_count_;
    if (--node->waiters > 0) return;
    if (!node->released) {
      index_.erase(node);
      MC_ASSERT(live_level_count_ > 0, "level accounting underflow");
      --live_level_count_;
    }
    recycle(node);
  }

  /// §7: "removes all nodes with levels less than or equal to the new
  /// counter value from the waiting list."  Ascending: the index peels
  /// the global-minimum shard root, or sort-merges past the bulk
  /// crossover — so this touches O(released levels) nodes, never the
  /// whole structure and never individual waiters.  `on_release(Node&)`
  /// is the policy's wake hook, called once per node with the owning
  /// lock still held (a released node may only be freed by its last
  /// waiter, and waiters cannot run until the lock drops, so the node
  /// is guaranteed alive inside the hook).
  template <typename OnRelease>
  void release_prefix(counter_value_t value, OnRelease&& on_release) {
    release(value, /*aborted=*/false, on_release);
  }

  /// Poison path: unlinks and wakes EVERY node regardless of level,
  /// marking each `aborted` so resuming waiters can tell "reached"
  /// from "the Increment you were waiting on is never coming".  Same
  /// locking discipline, ascending order and `on_release` wake hook as
  /// release_prefix.
  template <typename OnRelease>
  void abort_all(OnRelease&& on_release) {
    release(kNoArmedLevel, /*aborted=*/true, on_release);
  }

  /// Appends one (level, waiters) entry per live node, ascending.
  void snapshot_into(std::vector<DebugWaitLevel>& out) const {
    const std::size_t first = out.size();
    index_.for_each([&](Node* node) {
      out.push_back(DebugWaitLevel{node->level, node->waiters});
    });
    std::sort(out.begin() + static_cast<std::ptrdiff_t>(first), out.end(),
              [](const DebugWaitLevel& a, const DebugWaitLevel& b) {
                return a.level < b.level;
              });
  }

 private:
  template <typename OnRelease>
  void release(counter_value_t value, bool aborted, OnRelease& on_release) {
    const std::size_t released_levels =
        index_.release(value, [&](Node* node) {
          Env::point(SchedulePoint::kIndexPeel);
          Env::point(SchedulePoint::kWake);
          node->released = true;
          node->aborted = aborted;
          MC_ASSERT(live_level_count_ > 0, "level accounting underflow");
          --live_level_count_;
          if (aborted) {
            stats_.on_aborted_wakeups(node->waiters);
          } else {
            stats_.on_wakeups(node->waiters);
          }
          on_release(*node);
        });
    if (released_levels > 1) stats_.on_bulk_wake();
  }

  Node* allocate_node(counter_value_t level) {
    Node* node;
    bool from_pool = false;
    if (free_list_ != nullptr) {
      node = free_list_;
      free_list_ = node->next;
      --pool_size_;
      from_pool = true;
    } else {
      Env::alloc_point();  // fault hook: may throw std::bad_alloc
      node = new Node();
    }
    node->level = level;
    node->waiters = 0;
    node->released = false;
    node->aborted = false;
    node->signal.reset();
    node->next = nullptr;
    node->heap_pos = 0;
    stats_.on_node_allocated(from_pool);
    return node;
  }

  void recycle(Node* node) {
    stats_.on_node_freed();
    // The retention cap never drops below the preallocated count, so
    // capacity paid for up front is never handed back to the heap.
    const std::size_t cap =
        std::max(kPoolRetention, options_.preallocated_nodes);
    if (options_.pool_nodes && pool_size_ < cap) {
      node->next = free_list_;
      free_list_ = node;
      ++pool_size_;
    } else {
      delete node;
    }
  }

  void drain_pool() {
    while (free_list_ != nullptr) {
      Node* node = free_list_;
      free_list_ = node->next;
      delete node;
    }
    pool_size_ = 0;
  }

  const WaitListOptions options_;
  CounterStats& stats_;
  detail::LevelIndex<Node> index_;  // live nodes, levels > value
  Node* free_list_ = nullptr;       // node pool (options_.pool_nodes)
  std::size_t pool_size_ = 0;
  std::size_t waiter_count_ = 0;      // registered waiters (admission)
  std::size_t live_level_count_ = 0;  // linked nodes (admission)
};

/// One node per level with registered OnReach callbacks, in the same
/// level index as WaitList (the engine passes its shard count down, so
/// a many-level counter indexes a million OnReach levels at the same
/// O(log L) its parked waiters get), but released nodes are detached
/// under the lock and executed outside it (CP.22: callbacks may
/// re-enter this or any other counter).  Templated over the engine
/// environment for the same reason WaitList is: its allocations (node +
/// entry vector + index link) run under the engine mutex, so they are
/// fault-injection points (Env::alloc_point) the strong-guarantee audit
/// must cover.
template <typename Env = RealEngineEnv>
class CallbackListT {
 public:
  /// One registered OnReach: the success callback plus an optional
  /// error callback that receives the poison cause when the counter is
  /// poisoned below the entry's level.
  struct Entry {
    std::function<void()> fn;
    std::function<void(std::exception_ptr)> on_error;
  };

  struct Node {
    counter_value_t level = 0;
    std::vector<Entry> callbacks;
    Node* next = nullptr;      // detached-chain link
    std::size_t heap_pos = 0;  // level-index back-link
  };

  explicit CallbackListT(std::size_t shards = 1) : index_(shards) {}

  /// Unreached callbacks are dropped, not run: running "reached level
  /// L" callbacks for a level that was never reached would be a lie.
  /// (Poisoning, by contrast, detaches them and delivers the error —
  /// see detach_all / run_chain_error.)
  ~CallbackListT() {
    index_.for_each([](Node* node) { delete node; });
  }

  CallbackListT(const CallbackListT&) = delete;
  CallbackListT& operator=(const CallbackListT&) = delete;

  bool empty() const noexcept { return index_.empty(); }

  /// Lowest level with a registered callback, or kNoArmedLevel when
  /// none (mirrors WaitList::min_level for the watermark computation).
  counter_value_t min_level() const noexcept { return index_.min_level(); }

  /// Inserts into the level index, joining an existing level node if
  /// present (mirrors the wait list).
  ///
  /// Strong exception guarantee: every allocation point — growing an
  /// existing node's entry vector, creating a new node, or linking it
  /// into the index — runs before the node is (or stays) visible in a
  /// partially-updated state.  push_back itself is strong, a
  /// freshly-allocated node is only linked after its entry is in
  /// place, and a failed index link deletes the unlinked node — so a
  /// bad_alloc (real or injected at Env::alloc_point) leaves the list
  /// exactly as it was.
  void insert(counter_value_t level, std::function<void()> fn,
              std::function<void(std::exception_ptr)> on_error = {}) {
    Node* node = index_.find(level);
    Env::alloc_point();  // fault hook: may throw std::bad_alloc
    if (node != nullptr) {
      node->callbacks.push_back(Entry{std::move(fn), std::move(on_error)});
      return;
    }
    node = new Node();
    try {
      node->level = level;
      node->callbacks.push_back(Entry{std::move(fn), std::move(on_error)});
      index_.link(node, [] { Env::alloc_point(); });
    } catch (...) {
      delete node;  // never linked; index unwound to pre-call state
      throw;
    }
  }

  /// Detaches the nodes with level <= value and returns them as an
  /// ascending chain (run_chain's "across levels, in level order"
  /// contract); the caller runs the chain after dropping the lock.
  Node* detach_reached(counter_value_t value) {
    Node* head = nullptr;
    Node** tail = &head;
    index_.release(value, [&](Node* node) {
      node->next = nullptr;
      *tail = node;
      tail = &node->next;
    });
    return head;
  }

  /// Poison path: detaches every remaining node (all have level >
  /// value by invariant, so none was reached), ascending.  The caller
  /// delivers the chain to run_chain_error after dropping the lock.
  Node* detach_all() { return detach_reached(kNoArmedLevel); }

  /// Runs and frees a detached chain.  Must be called with no counter
  /// lock held.  Callbacks for one level run in registration order;
  /// across levels, in level order.
  static void run_chain(Node* chain) {
    while (chain != nullptr) {
      Node* node = chain;
      chain = node->next;
      for (auto& entry : node->callbacks) entry.fn();
      delete node;
    }
  }

  /// Frees a detached chain of never-reached callbacks, delivering
  /// `cause` to each entry's error callback (entries without one are
  /// dropped).  Must be called with no counter lock held.
  static void run_chain_error(Node* chain, const std::exception_ptr& cause) {
    while (chain != nullptr) {
      Node* node = chain;
      chain = node->next;
      for (auto& entry : node->callbacks) {
        if (entry.on_error) entry.on_error(cause);
      }
      delete node;
    }
  }

  void snapshot_into(std::vector<counter_value_t>& out) const {
    const std::size_t first = out.size();
    index_.for_each([&](Node* node) { out.push_back(node->level); });
    std::sort(out.begin() + static_cast<std::ptrdiff_t>(first), out.end());
  }

 private:
  detail::LevelIndex<Node> index_;  // levels > value
};

/// Production alias, with the fault hook inlined away (RealEngineEnv::alloc_point is an empty function).
using CallbackList = CallbackListT<>;

}  // namespace monotonic

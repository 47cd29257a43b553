// wait_index.hpp — the level index behind the wait plane and the
// OnReach callback index (wait_list.hpp).
//
// The paper's §7 structure is an ordered linked list of level nodes:
// O(live levels) to join a new level, O(1) min-level, O(released
// levels) to release a prefix.  That walk caps the overload-storm
// bench at ~10k armed waiters — arming L levels in ascending order
// costs O(L^2) pointer chases.  This header keeps the list's contract
// with a different representation: per shard,
//
//   * an intrusive array binary min-heap of (level, node) entries,
//     ordered by level, with a `heap_pos` back-link stored in the node
//     so an arbitrary node (a timed-out waiter's) erases in O(log L);
//     and
//   * once the shard holds more than kScanLevels levels, a flat
//     open-addressing hash table (linear probing, power-of-two
//     capacity, backward-shift deletion) from level to node, so
//     join-or-insert finds an existing level in O(1) expected instead
//     of walking the order.  Below that, `find` scans the heap array:
//     a few adjacent entries beat a hash probe, and a counter that only
//     ever parks on a handful of levels never allocates a table.  A
//     node-based std::unordered_map would cost one allocation per armed
//     level and one scattered free per woken one — at 10^6 levels those
//     frees alone dominated the bulk wake.  The flat table probes one
//     cache line, clears by dropping one array, and never allocates per
//     level.
//
// The level is stored IN the heap array, not read through the node:
// sift compares at a million live levels are then loads from one
// contiguous array instead of a dependent pointer chase per compare,
// which is what keeps the per-wake cost flat as the index grows (the
// E13 bench charts this).  The node still carries `heap_pos` so the
// two stay in lock-step.
//
// The heap keeps the §7 contract observable: the minimum level is the
// root (O(1) — the striped plane's watermark needs exactly this), and
// releasing "all levels <= value" visits ascending minima, so waiters
// are still released in level order and released nodes are still
// exactly the ascending prefix of the live set.
//
// Sharding (LevelIndex picks a shard by `level % shards`) bounds each
// heap's depth at O(log(L/S)); cross-shard operations (min-level,
// ascending release) scan the S roots, which is O(S) with S <= 64 —
// the same small-linear-scan trade the striped value plane makes.  One
// shard is the default; E12.b's million-level storm is where more win.
//
// Locking: none here.  Every member requires the owning counter's
// mutex.
//
// Exception safety: `link` is the only member that allocates (building
// or growing the table, and the heap array growth).  It takes an
// allocation hook the caller points at Env::alloc_point so fault
// environments can inject bad_alloc at each site, and it unwinds to the
// exact pre-call state: the table is built aside and swapped in, the
// table entry is only placed after the heap push succeeded, and the
// node is never observable half-linked.  Everything else is noexcept.
#pragma once

#include <algorithm>
#include <array>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <vector>

#include "monotonic/support/assert.hpp"
#include "monotonic/support/config.hpp"

namespace monotonic {

/// Watermark sentinel: "no level is armed".  Strictly above every legal
/// level (lock-free value planes cap levels at max >> 1, and Check
/// REQUIREs that), so the engine's `sum >= watermark` test needs no
/// special case for the empty wait list.
inline constexpr counter_value_t kNoArmedLevel =
    std::numeric_limits<counter_value_t>::max();

/// Level-index shard cap, mirroring the striped value plane's [1, 64]
/// stripe clamp: every cross-shard operation is an O(S) scan, and the
/// bulk-wake merge keeps one cursor per shard on the stack.
inline constexpr std::size_t kMaxWaitShards = 64;

}  // namespace monotonic

namespace monotonic::detail {

/// Bulk-wake crossover: a release that visits more than this many
/// levels stops popping minima one by one (O(log L) scattered sifts
/// each) and switches to sort-merge-discard over the shard arrays —
/// see LevelShard's bulk-drain block.
inline constexpr std::size_t kBulkWakeThreshold = 64;

/// One shard of the level index.  `Node` must expose
/// `counter_value_t level` and `std::size_t heap_pos` (the intrusive
/// back-link this shard maintains); nodes are owned by the caller.
template <typename Node>
class LevelShard {
 public:
  /// The node for `level`, or nullptr: a scan of at most kScanLevels
  /// heap entries while the shard has no table, O(1) expected after.
  Node* find(counter_value_t level) const noexcept {
    if (table_.empty()) {
      for (const Entry& entry : heap_) {
        if (entry.level == level) return entry.node;
      }
      return nullptr;
    }
    const std::size_t mask = table_.size() - 1;
    std::size_t i = slot_hash(level) & mask;
    while (table_[i].node != nullptr) {
      if (table_[i].level == level) return table_[i].node;
      i = (i + 1) & mask;
    }
    return nullptr;
  }

  /// Links a fresh node (not found by `find`) into the shard —
  /// O(log L) sift plus the table insert.  `alloc_hook()` runs before
  /// each operation that may allocate; it (or the allocation itself)
  /// may throw, in which case the shard is exactly as it was (a
  /// completed rehash aside — invisible through this API) and the node
  /// is untouched, still owned by the caller.
  template <typename AllocHook>
  void link(Node* node, AllocHook&& alloc_hook) {
    alloc_hook();       // fault hook: the table may be built or grow
    ensure_capacity();  // builds the table aside, then swaps
    alloc_hook();       // fault hook: the heap array may grow
    heap_.push_back(Entry{node->level, node});
    if (!table_.empty()) place(table_, Slot{node->level, node});
    node->heap_pos = heap_.size() - 1;
    sift_up(node->heap_pos);
  }

  /// The root's level without touching the node (the watermark scan
  /// and the cross-shard peel read this).  Only valid when non-empty.
  counter_value_t min_level() const noexcept { return heap_[0].level; }

  /// Unlinks and returns the root.  O(log L).
  Node* pop_min() noexcept {
    Node* node = heap_[0].node;
    erase(node);
    return node;
  }

  /// Unlinks an arbitrary linked node (timed-out waiter).  O(log L).
  void erase(Node* node) noexcept {
    const std::size_t pos = node->heap_pos;
    MC_ASSERT(pos < heap_.size() && heap_[pos].node == node,
              "level-index back-link corrupt");
    if (!table_.empty()) erase_slot(node->level);
    Entry last = heap_.back();
    heap_.pop_back();
    if (pos == heap_.size()) return;  // erased the tail itself
    heap_[pos] = last;
    last.node->heap_pos = pos;
    // The hole-filler may belong above or below its new slot.
    sift_up(pos);
    if (last.node->heap_pos == pos) sift_down(pos);
  }

  bool empty() const noexcept { return heap_.empty(); }

  // --- Bulk drain (the big-wake fast path) -------------------------
  //
  // Releasing r of n levels by repeated pop_min costs r sift-downs of
  // ~log n dependent compares each; at a million live levels the cache
  // misses in those sifts dominate the whole wake.  When r is large
  // the caller instead (1) sorts each shard's entry array ascending in
  // place — contiguous, allocation-free, no node derefs — (2) k-way
  // merges the S sorted prefixes to visit released nodes in global
  // level order, and (3) discards each prefix in one pass.  A sorted
  // ascending array IS a valid min-heap, so the survivors need no
  // rebuild.  Between sort_ascending() and discard_prefix() the
  // heap_pos back-links are stale: the caller holds the counter mutex
  // for the whole sequence and must not call find/link/erase inside
  // it.

  /// Step 1: sort entries ascending by level.  Positions are stale
  /// until discard_prefix() runs.  Small shards use introsort; past
  /// kRadixMinSort entries the arrays no longer fit cache and n log n
  /// cold compares dominate the whole wake, so the sort switches to
  /// LSD radix through `scratch_` — a few streaming passes, one per
  /// significant byte of the largest level (E13 measured this at
  /// roughly a third of introsort's cost at 10^6 live levels).  The
  /// scratch is pre-reserved on the arm path (ensure_capacity), so
  /// this stays allocation-free and noexcept.
  void sort_ascending() noexcept {
    const std::size_t n = heap_.size();
    if (n <= kRadixMinSort) {
      std::sort(heap_.begin(), heap_.end(),
                [](const Entry& a, const Entry& b) { return a.level < b.level; });
      return;
    }
    MC_ASSERT(scratch_.capacity() >= n, "radix scratch under-reserved");
    scratch_.resize(n);  // within capacity: cannot throw
    counter_value_t max_level = 0;
    for (const Entry& entry : heap_) max_level = std::max(max_level, entry.level);
    Entry* from = heap_.data();
    Entry* to = scratch_.data();
    for (int shift = 0; shift < 64 && (max_level >> shift) != 0; shift += 8) {
      std::size_t count[256] = {};
      for (std::size_t i = 0; i < n; ++i) {
        ++count[(from[i].level >> shift) & 0xff];
      }
      std::size_t pos = 0;
      for (std::size_t bucket = 0; bucket < 256; ++bucket) {
        const std::size_t c = count[bucket];
        count[bucket] = pos;
        pos += c;
      }
      for (std::size_t i = 0; i < n; ++i) {
        to[count[(from[i].level >> shift) & 0xff]++] = from[i];
      }
      std::swap(from, to);
    }
    if (from != heap_.data()) std::copy(from, from + n, heap_.data());
  }

  /// Step 1b: after sort_ascending(), the number of entries with
  /// level <= value (binary search).
  std::size_t split(counter_value_t value) const noexcept {
    std::size_t lo = 0;
    std::size_t hi = heap_.size();
    while (lo < hi) {
      const std::size_t mid = lo + (hi - lo) / 2;
      if (heap_[mid].level <= value) {
        lo = mid + 1;
      } else {
        hi = mid;
      }
    }
    return lo;
  }

  /// Step 2: merge-cursor reads into the sorted array.
  counter_value_t level_at(std::size_t i) const noexcept {
    return heap_[i].level;
  }
  Node* node_at(std::size_t i) const noexcept { return heap_[i].node; }

  /// Step 3: removes the first `r` (already-delivered) entries, their
  /// table entries with them, and re-bases the survivors' back-links.
  /// A full drain drops the table outright (one deallocation — storage
  /// shrinks back to O(live levels) after a storm); a partial one
  /// rebuilds any table from the survivors in a single pass, which past
  /// the bulk crossover beats r backward-shift erases.
  void discard_prefix(std::size_t r) noexcept {
    if (r == 0) return;
    if (r == heap_.size()) {
      heap_.clear();
      std::vector<Slot>().swap(table_);
      std::vector<Entry>().swap(scratch_);
      return;
    }
    heap_.erase(heap_.begin(), heap_.begin() + static_cast<std::ptrdiff_t>(r));
    for (Slot& slot : table_) slot.node = nullptr;
    for (std::size_t i = 0; i < heap_.size(); ++i) {
      heap_[i].node->heap_pos = i;
      if (!table_.empty()) place(table_, Slot{heap_[i].level, heap_[i].node});
    }
  }

  /// Current tree depth: floor(log2(size)) + 1, 0 when empty.  Feeds
  /// the index_depth high-water stat.
  std::size_t depth() const noexcept { return std::bit_width(heap_.size()); }

  /// Visits every linked node, heap order (NOT level order).
  template <typename Fn>
  void for_each(Fn&& fn) const {
    for (const Entry& entry : heap_) fn(entry.node);
  }

 private:
  /// A heap slot: the node plus a copy of its (immutable) level, so
  /// sift compares never leave the array.
  struct Entry {
    counter_value_t level;
    Node* node;
  };

  /// A hash-table slot; node == nullptr marks it empty (the level of
  /// an empty slot is meaningless, so level 0 needs no special case).
  struct Slot {
    counter_value_t level;
    Node* node;
  };

  /// splitmix64-style mixer — level % shards already consumed the low
  /// bits for shard choice, so the table must not reuse them raw.
  static std::size_t slot_hash(counter_value_t level) noexcept {
    std::uint64_t z =
        static_cast<std::uint64_t>(level) + 0x9e3779b97f4a7c15ull;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return static_cast<std::size_t>(z ^ (z >> 31));
  }

  /// Linear-probe placement into a table that has a free slot (load is
  /// kept <= 1/2, so the probe always terminates).
  static void place(std::vector<Slot>& table, Slot slot) noexcept {
    const std::size_t mask = table.size() - 1;
    std::size_t i = slot_hash(slot.level) & mask;
    while (table[i].node != nullptr) i = (i + 1) & mask;
    table[i] = slot;
  }

  /// Builds the table when the next insert is the (kScanLevels+1)-th
  /// level, grows it when the insert would push load past 1/2, and
  /// keeps the radix scratch reserved ahead of the live-level count so
  /// the bulk drain never allocates.  Strong guarantee: the new table
  /// is built aside from the heap entries and swapped in.
  void ensure_capacity() {
    const std::size_t n = heap_.size() + 1;  // live levels after the link
    if (table_.empty() ? n > kScanLevels : n * 2 > table_.size()) {
      std::vector<Slot> grown(std::bit_ceil(n * 2), Slot{0, nullptr});
      for (const Entry& entry : heap_) {
        place(grown, Slot{entry.level, entry.node});
      }
      table_.swap(grown);
    }
    if (heap_.size() + 1 > kRadixMinSort &&
        scratch_.capacity() < heap_.size() + 1) {
      scratch_.reserve(table_.size() / 2);  // load <= 1/2, so this fits
    }
  }

  /// Removes `level`'s slot with backward-shift deletion: entries of
  /// the probe cluster past the hole move back over it when their
  /// ideal position allows, so probes never need tombstones.
  void erase_slot(counter_value_t level) noexcept {
    const std::size_t mask = table_.size() - 1;
    std::size_t hole = slot_hash(level) & mask;
    while (table_[hole].node == nullptr || table_[hole].level != level) {
      MC_ASSERT(table_[hole].node != nullptr, "level-index table miss");
      hole = (hole + 1) & mask;
    }
    std::size_t next = (hole + 1) & mask;
    while (table_[next].node != nullptr) {
      const std::size_t ideal = slot_hash(table_[next].level) & mask;
      // Movable iff the hole lies cyclically within [ideal, next].
      if (((next - ideal) & mask) >= ((next - hole) & mask)) {
        table_[hole] = table_[next];
        hole = next;
      }
      next = (next + 1) & mask;
    }
    table_[hole].node = nullptr;
  }

  void sift_up(std::size_t i) noexcept {
    Entry entry = heap_[i];
    while (i > 0) {
      const std::size_t parent = (i - 1) / 2;
      if (heap_[parent].level <= entry.level) break;
      heap_[i] = heap_[parent];
      heap_[i].node->heap_pos = i;
      i = parent;
    }
    heap_[i] = entry;
    entry.node->heap_pos = i;
  }

  void sift_down(std::size_t i) noexcept {
    Entry entry = heap_[i];
    const std::size_t size = heap_.size();
    for (;;) {
      std::size_t child = 2 * i + 1;
      if (child >= size) break;
      if (child + 1 < size && heap_[child + 1].level < heap_[child].level) {
        ++child;
      }
      if (heap_[child].level >= entry.level) break;
      heap_[i] = heap_[child];
      heap_[i].node->heap_pos = i;
      i = child;
    }
    heap_[i] = entry;
    entry.node->heap_pos = i;
  }

  /// Levels a shard indexes by scanning its heap array; the table is
  /// built when one more links.  Eight entries are two cache lines.
  static constexpr std::size_t kScanLevels = 8;

  /// Introsort-vs-radix crossover for sort_ascending (entries; 4096 of
  /// them is 64 KiB — comfortably cache-resident for introsort).
  static constexpr std::size_t kRadixMinSort = 4096;

  std::vector<Entry> heap_;     // array binary min-heap by level
  std::vector<Slot> table_;     // level->node index; empty while scanning
  std::vector<Entry> scratch_;  // radix ping-pong buffer (bulk drain)
};

/// The whole level index: S shards, level % S picks a level's shard.
/// Both the wait plane and the OnReach index are one of these.
template <typename Node>
class LevelIndex {
 public:
  /// `shards` is clamped to [1, kMaxWaitShards]; 0 means one shard.
  explicit LevelIndex(std::size_t shards)
      : shards_(std::clamp<std::size_t>(shards, 1, kMaxWaitShards)) {}

  std::size_t shard_count() const noexcept { return shards_.size(); }

  bool empty() const noexcept { return min_shard() == nullptr; }

  /// Lowest linked level, or kNoArmedLevel when empty.  O(S).
  counter_value_t min_level() const noexcept {
    const LevelShard<Node>* shard = min_shard();
    return shard != nullptr ? shard->min_level() : kNoArmedLevel;
  }

  Node* find(counter_value_t level) const noexcept {
    return shard_for(level).find(level);
  }

  /// Links a node `find` did not return, with LevelShard::link's
  /// strong guarantee.  Returns the shard's depth afterwards.
  template <typename AllocHook>
  std::size_t link(Node* node, AllocHook&& alloc_hook) {
    LevelShard<Node>& shard = shard_for(node->level);
    shard.link(node, alloc_hook);
    return shard.depth();
  }

  void erase(Node* node) noexcept { shard_for(node->level).erase(node); }

  /// Unlinks every node with level <= value and hands each to
  /// `per_node` in ascending level order; returns how many.  The first
  /// kBulkWakeThreshold pop the minimum shard root one by one; the rest
  /// drain by sorting each shard's array, k-way merging the sorted
  /// prefixes, then discarding them.  Allocation-free: the merge keeps
  /// one cursor per shard on the stack.  `per_node` must not call back
  /// into the index (back-links are stale mid-drain).
  template <typename PerNode>
  std::size_t release(counter_value_t value, PerNode&& per_node) {
    std::size_t released = 0;
    for (; released < kBulkWakeThreshold; ++released) {
      LevelShard<Node>* shard = min_shard();
      if (shard == nullptr || shard->min_level() > value) return released;
      per_node(shard->pop_min());
    }
    if (min_level() > value) return released;
    const std::size_t nshards = shards_.size();
    std::array<std::size_t, kMaxWaitShards> cursor{};
    std::array<std::size_t, kMaxWaitShards> end{};
    for (std::size_t i = 0; i < nshards; ++i) {
      shards_[i].sort_ascending();
      end[i] = shards_[i].split(value);
    }
    for (;;) {
      std::size_t best = nshards;
      counter_value_t best_level = 0;
      for (std::size_t i = 0; i < nshards; ++i) {
        if (cursor[i] == end[i]) continue;
        const counter_value_t level = shards_[i].level_at(cursor[i]);
        if (best == nshards || level < best_level) {
          best = i;
          best_level = level;
        }
      }
      if (best == nshards) break;
      // The nodes themselves are scattered; pull the one we'll touch a
      // few iterations from now while this one's miss is in flight.
      if (cursor[best] + 8 < end[best]) {
        __builtin_prefetch(shards_[best].node_at(cursor[best] + 8), 1);
      }
      per_node(shards_[best].node_at(cursor[best]++));
      ++released;
    }
    for (std::size_t i = 0; i < nshards; ++i) {
      shards_[i].discard_prefix(end[i]);
    }
    return released;
  }

  /// Visits every linked node, in no particular order.  `fn` may
  /// delete the node (the destructor sweep does).
  template <typename Fn>
  void for_each(Fn&& fn) const {
    for (const auto& shard : shards_) shard.for_each(fn);
  }

 private:
  LevelShard<Node>& shard_for(counter_value_t level) {
    return shards_[static_cast<std::size_t>(level) % shards_.size()];
  }
  const LevelShard<Node>& shard_for(counter_value_t level) const {
    return shards_[static_cast<std::size_t>(level) % shards_.size()];
  }

  LevelShard<Node>* min_shard() noexcept { return min_shard_of(shards_); }
  const LevelShard<Node>* min_shard() const noexcept {
    return min_shard_of(shards_);
  }

  /// The shard with the globally minimal root, or nullptr when every
  /// shard is empty.  O(S).
  template <typename Shards>
  static auto* min_shard_of(Shards& shards) noexcept {
    decltype(&shards[0]) best = nullptr;
    for (auto& shard : shards) {
      if (!shard.empty() &&
          (best == nullptr || shard.min_level() < best->min_level())) {
        best = &shard;
      }
    }
    return best;
  }

  std::vector<LevelShard<Node>> shards_;
};

}  // namespace monotonic::detail

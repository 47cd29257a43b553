// stat_block.hpp — a block of named relaxed-atomic statistics.
//
// A statistics family (the engine's CounterStats, the server's
// ServerStats) declares each statistic once, in an X-macro list of
// `X(name, kind, arg)` entries.  That one list generates:
//   - the plain snapshot struct, one std::uint64_t field per entry,
//     under the name callers read (`st.suspensions`);
//   - StatList<Snapshot>: an index enum with the same names, and the
//     declaration table (name, field, kind, arg) every loop walks.
// StatBlock<Snapshot> stores one relaxed atomic per statistic.  A bump
// is one read-modify-write on the block, indexed by a compile-time
// enumerator: no name lookup, no map, no per-thread indirection.
// snapshot(), reset(), merge_stats() and for_each_stat() each loop
// over the declaration table, so no code outside the list names a
// statistic to copy, clear, add or serialize it.
//
// These are diagnostics, not synchronization: every access is relaxed.
#pragma once

#include <algorithm>
#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <string_view>

namespace monotonic {

/// How a statistic behaves under reset() and merge_stats().
enum class StatKind : std::uint8_t {
  kTotal,   ///< running total: reset() zeroes it, merging sums
  kPeak,    ///< high-water mark: reset() lowers it to its level, merging
            ///< takes the max
  kLevel,   ///< live level (a gauge): reset() keeps it, merging sums
  kConfig,  ///< configuration: reset() keeps it, merging takes the max
};

/// No statistic: the level of a peak that tracks none.
inline constexpr std::size_t kNoStat = ~std::size_t{0};

/// One statistic's declaration.  `arg` is a kConfig statistic's value
/// at construction, and the index of the level a kPeak statistic's
/// reset() lowers it to (kNoStat: to zero); other kinds ignore it.
template <class Snapshot>
struct StatDecl {
  std::string_view name;
  std::uint64_t Snapshot::*field;
  StatKind kind;
  std::size_t arg;
};

/// Specialized once per family, by MONOTONIC_STAT_LIST.
template <class Snapshot>
struct StatList;

#define MONOTONIC_STAT_FIELD(name, kind, arg) std::uint64_t name = 0;
#define MONOTONIC_STAT_ID(name, kind, arg) name,
#define MONOTONIC_STAT_DECL(name, kind, arg) \
  {#name, &Snapshot::name, StatKind::kind, arg},

/// Declares StatList<SnapshotType> from the family's X-macro LIST.
/// Expand at namespace `monotonic` scope, after the snapshot struct.
#define MONOTONIC_STAT_LIST(SnapshotType, LIST)                        \
  template <>                                                         \
  struct StatList<SnapshotType> {                                     \
    using Snapshot = SnapshotType;                                    \
    enum Id : std::size_t { LIST(MONOTONIC_STAT_ID) kCount };         \
    static constexpr std::array<StatDecl<Snapshot>, kCount> decls = { \
        {LIST(MONOTONIC_STAT_DECL)}};                                 \
  }

/// Calls fn(name, value) for every statistic of `s`, in declaration
/// order — the one serializer the Stats op and any dump share.
template <class Snapshot, class Fn>
void for_each_stat(const Snapshot& s, Fn&& fn) {
  for (const auto& d : StatList<Snapshot>::decls) fn(d.name, s.*d.field);
}

/// Folds `from` into `into` by kind: totals and levels sum, peaks and
/// configuration take the max.
template <class Snapshot>
void merge_stats(Snapshot& into, const Snapshot& from) noexcept {
  for (const auto& d : StatList<Snapshot>::decls) {
    std::uint64_t& v = into.*d.field;
    const std::uint64_t w = from.*d.field;
    const bool additive =
        d.kind == StatKind::kTotal || d.kind == StatKind::kLevel;
    v = additive ? v + w : std::max(v, w);
  }
}

/// The atomic storage of the first `Stored` statistics of a family
/// (all of them by default).  A family whose trailing statistics live
/// elsewhere stores only the prefix; snapshot() leaves the rest zero
/// for the owner to fill.
template <class Snapshot, std::size_t Stored = StatList<Snapshot>::kCount>
class StatBlock {
  using List = StatList<Snapshot>;
  static_assert(Stored <= List::kCount);

 public:
  using Id = typename List::Id;

  StatBlock() noexcept {
    for (std::size_t i = 0; i < Stored; ++i) {
      const auto& d = List::decls[i];
      if (d.kind == StatKind::kConfig) v_[i].store(d.arg, kRelaxed);
    }
  }

  /// Adds n; returns the new value (a level's peak reads it).
  std::uint64_t add(Id id, std::uint64_t n = 1) noexcept {
    return v_[id].fetch_add(n, kRelaxed) + n;
  }
  void sub(Id id, std::uint64_t n = 1) noexcept {
    v_[id].fetch_sub(n, kRelaxed);
  }
  void set(Id id, std::uint64_t value) noexcept {
    v_[id].store(value, kRelaxed);
  }
  /// Raises a peak to `candidate` if that is higher.
  void raise(Id id, std::uint64_t candidate) noexcept {
    std::uint64_t cur = v_[id].load(kRelaxed);
    while (candidate > cur &&
           !v_[id].compare_exchange_weak(cur, candidate, kRelaxed)) {
    }
  }
  std::uint64_t get(Id id) const noexcept { return v_[id].load(kRelaxed); }

  Snapshot snapshot() const noexcept {
    Snapshot s;
    for (std::size_t i = 0; i < Stored; ++i) {
      s.*List::decls[i].field = v_[i].load(kRelaxed);
    }
    return s;
  }

  /// Zeroes the totals and lowers each peak to its level; levels and
  /// configuration survive.
  void reset() noexcept {
    for (std::size_t i = 0; i < Stored; ++i) {
      const auto& d = List::decls[i];
      if (d.kind == StatKind::kTotal) {
        v_[i].store(0, kRelaxed);
      } else if (d.kind == StatKind::kPeak) {
        v_[i].store(d.arg == kNoStat ? 0 : v_[d.arg].load(kRelaxed),
                    kRelaxed);
      }
    }
  }

 private:
  static constexpr auto kRelaxed = std::memory_order_relaxed;
  std::array<std::atomic<std::uint64_t>, Stored> v_{};
};

}  // namespace monotonic

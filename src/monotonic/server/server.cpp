// server.cpp — event-loop implementation of the counter server.
//
// Single-threaded by construction: every map, buffer, timer and wait
// registration below is owned by the event-loop thread.  The only
// cross-thread traffic is the atomic stats block and the wake eventfd
// that Stop, Drain and SIGTERM poke.  The loop is the only thread that
// increments or poisons an engine, and every engine runs its
// completions inline, so a parked wait's OnReach fires on the loop,
// inside the add() or poison() that reached it, and writes its reply
// straight into the connection's wbuf.  A wait settles once: the fire,
// a CheckFor timer, a disconnect sweep or a drain, whichever comes
// first, marks its WaitReg settled, and every later party does nothing.
// That flag is what makes "client died while parked" leak-free without
// an engine-side deregistration API.

#include "monotonic/server/server.hpp"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <sched.h>
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <csignal>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <deque>
#include <exception>
#include <functional>
#include <optional>
#include <queue>
#include <stdexcept>
#include <string>
#include <string_view>
#include <system_error>
#include <unordered_map>
#include <utility>
#include <vector>

#include "monotonic/core/any_counter.hpp"
#include "monotonic/core/completion.hpp"
#include "monotonic/core/counter_error.hpp"
#include "monotonic/server/protocol.hpp"
#include "monotonic/server/state_file.hpp"

namespace monotonic::server {

namespace {

using ServerStat = StatList<ServerStats>;

[[noreturn]] void throw_errno(const char* what) {
  throw std::system_error(errno, std::generic_category(), what);
}

std::string exception_message(std::exception_ptr ep) {
  try {
    std::rethrow_exception(std::move(ep));
  } catch (const std::exception& e) {
    return e.what();
  } catch (...) {
    return "counter poisoned (non-std::exception cause)";
  }
}

/// The executor every engine is built with: completions run inline,
/// on the loop thread that increments or poisons the counter.  An
/// executor rather than none, so per-counter Stats count them as
/// async_completions.
const std::shared_ptr<CompletionExecutor>& loop_executor() {
  static const std::shared_ptr<CompletionExecutor> executor =
      std::make_shared<InlineExecutor>();
  return executor;
}

/// Parses the default spec once, up front: a default-spec counter
/// builds its engine only when first needed, on the loop thread, where
/// a bad spec could no longer be reported.  Returns the spec's
/// max_value(), the bound a counter without an engine is held to.
counter_value_t checked_default_max(const std::string& spec) {
  try {
    return make_counter(spec, loop_executor())->max_value();
  } catch (const std::invalid_argument& e) {
    throw std::invalid_argument("ServerOptions::default_spec '" + spec +
                                "' is refused: " + e.what());
  }
}

// SIGTERM → graceful drain (ServerOptions::drain_on_sigterm).  The
// handler may only touch async-signal-safe state: a flag the event
// loop polls and a write() to the wakeup eventfd that wakes it NOW.
// Process-wide by necessity — one drain-on-signal server per process.
// The flag is a lock-free atomic, not a volatile sig_atomic_t: the
// handler runs on whichever thread took the signal, and the loop
// thread reads the flag.
std::atomic<int> g_sigterm_pending{0};
std::atomic<int> g_sigterm_wake_fd{-1};
static_assert(std::atomic<int>::is_always_lock_free);

/// Wakes whoever waits on eventfd `fd`.  An eventfd takes exactly 8
/// bytes: a shorter write fails with EINVAL and wakes nobody.
void poke_eventfd(int fd) {
  if (fd >= 0) {
    const std::uint64_t one = 1;
    [[maybe_unused]] ssize_t n = ::write(fd, &one, sizeof(one));
  }
}

void sigterm_handler(int) {
  g_sigterm_pending.store(1, std::memory_order_relaxed);
  poke_eventfd(g_sigterm_wake_fd.load(std::memory_order_relaxed));
}

/// Whether this thread may run on more than one CPU.  On one CPU a
/// spinning loop only steals the time of the client it waits for.
bool several_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  return ::sched_getaffinity(0, sizeof(set), &set) == 0 && CPU_COUNT(&set) > 1;
}

/// The loop-owned counter table.  A counter is a dense index i; its wire
/// id is i + 1 (id 0 is the server-wide Stats handle).  Paper §7 sizes a
/// counter by its levels with waiters, so one nobody waits on costs its
/// value, a name offset, one bit and its name bytes:
///
///   * values live in fixed pages of kPage counters, so the table grows
///     without copying them (no realloc peak);
///   * names are appended to one arena; counter i's name ends at its u32
///     offset and starts where counter i - 1's ends;
///   * an open-addressing index of (32-bit hash tag | id) slots maps a
///     name to its counter, probed linearly at load <= 7/8;
///   * a side map holds what only some counters have — a non-default
///     spec, a built engine, a poison reason — and one bit per counter
///     says whether it has an entry there, so a plain counter's
///     Increment and Check(c, 0) never probe the map.
///
/// Ids and name offsets are 32-bit: the table holds at most 2^32 - 1
/// counters and 4 GiB of name bytes (see fits()).
class CounterTable {
 public:
  static constexpr std::size_t kNone = ~std::size_t{0};

  /// What only some counters have.  A counter gets one when its engine
  /// is built, so `engine` is never null.
  struct Extra {
    std::string spec;  ///< "" = ServerOptions::default_spec
    std::string poison_reason;
    std::unique_ptr<AnyCounter> engine;
  };

  /// The hash tag a name is indexed under; computed once per request.
  static std::uint32_t tag_of(std::string_view name) {
    const std::size_t h = std::hash<std::string_view>{}(name);
    return static_cast<std::uint32_t>(h ^ (h >> 32));
  }

  std::size_t size() const { return size_; }

  /// The counter `id` names, kNone for 0 and past the end.  Compared at
  /// 64 bits, so 2^32 + id does not alias id.
  std::size_t index(std::uint64_t id) const {
    return id - 1 < size_ ? static_cast<std::size_t>(id - 1) : kNone;
  }

  std::size_t find(std::string_view name, std::uint32_t tag) const {
    for (std::size_t s = tag & mask();; s = (s + 1) & mask()) {
      const std::uint64_t slot = slots_[s];
      if (slot == 0) return kNone;
      const std::size_t i = static_cast<std::uint32_t>(slot) - 1;
      if (slot >> 32 == tag && this->name(i) == name) return i;
    }
  }

  /// Whether append() has room for `name` under the 32-bit limits.
  bool fits(std::string_view name) const {
    return size_ < UINT32_MAX && name.size() <= UINT32_MAX - arena_.size();
  }

  /// Adds a counter named `name`, which must be absent and fit().
  std::size_t append(std::string_view name, std::uint32_t tag) {
    if ((size_ + 1) * 8 > slots_.size() * 7) grow();
    if (size_ == pages_.size() * kPage) {
      pages_.push_back(std::make_unique<Page>());
    }
    arena_.append(name);
    const std::size_t i = size_++;
    page(i).name_end[i % kPage] = static_cast<std::uint32_t>(arena_.size());
    place((std::uint64_t{tag} << 32) | (i + 1));
    return i;
  }

  std::string_view name(std::size_t i) const {
    const std::uint32_t begin =
        i == 0 ? 0 : page(i - 1).name_end[(i - 1) % kPage];
    return std::string_view(arena_).substr(
        begin, page(i).name_end[i % kPage] - begin);
  }

  /// Every amount added to counter i.  A built engine holds the same
  /// value.
  counter_value_t& value(std::size_t i) { return page(i).values[i % kPage]; }

  /// The counter's side-map entry, null for a plain counter.
  Extra* extra(std::size_t i) {
    const std::uint64_t word = page(i).has_extra[i % kPage / 64];
    if ((word >> (i % 64) & 1) == 0) return nullptr;
    return &extras_.find(static_cast<std::uint32_t>(i))->second;
  }

  Extra& add_extra(std::size_t i, Extra x) {
    Extra& added = extras_.emplace(static_cast<std::uint32_t>(i), std::move(x))
                       .first->second;
    page(i).has_extra[i % kPage / 64] |= std::uint64_t{1} << (i % 64);
    return added;
  }

 private:
  static constexpr std::size_t kPage = 4096;
  struct Page {
    counter_value_t values[kPage] = {};
    std::uint32_t name_end[kPage] = {};
    std::uint64_t has_extra[kPage / 64] = {};
  };

  Page& page(std::size_t i) const { return *pages_[i / kPage]; }
  std::size_t mask() const { return slots_.size() - 1; }

  void place(std::uint64_t slot) {
    std::size_t s = (slot >> 32) & mask();
    while (slots_[s] != 0) s = (s + 1) & mask();
    slots_[s] = slot;
  }

  void grow() {
    std::vector<std::uint64_t> old(slots_.size() * 2);
    old.swap(slots_);
    for (const std::uint64_t slot : old) {
      if (slot != 0) place(slot);
    }
  }

  std::vector<std::unique_ptr<Page>> pages_;
  std::string arena_;
  std::vector<std::uint64_t> slots_ =
      std::vector<std::uint64_t>(16);  ///< 0 = empty slot
  std::unordered_map<std::uint32_t, Extra> extras_;
  std::size_t size_ = 0;
};

}  // namespace

struct CounterServer::Impl {
  // ---- wait registrations -----------------------------------------

  /// Held by the engine's OnReach callbacks, the connection and the
  /// timer heap, all on the loop thread.  The first settler (fire /
  /// timeout / disconnect / drain) owns the response (or the silence,
  /// for disconnects) and drops the parked gauge; see settle().
  struct WaitReg {
    bool settled = false;
    int fd = -1;
    std::uint64_t gen = 0;  ///< connection generation, guards fd reuse
    std::uint64_t req_id = 0;
    std::size_t counter = 0;  ///< table index
    counter_value_t level = 0;
  };

  // ---- connections ------------------------------------------------

  /// A wait frame deferred under kBlockIncrementers, with the deadline
  /// its CheckFor timeout gives it: re-dispatch keeps the deadline the
  /// frame arrived with.
  struct DeferredWait {
    static constexpr auto kUntimed =
        std::chrono::steady_clock::time_point::max();
    std::string frame;
    std::chrono::steady_clock::time_point deadline;
  };

  struct Connection {
    int fd = -1;
    std::uint64_t gen = 0;
    std::uint32_t events = EPOLLIN;  ///< the epoll interest registered
    std::string rbuf;
    std::size_t roff = 0;  ///< parsed prefix of rbuf
    std::string wbuf;
    std::size_t woff = 0;  ///< written prefix of wbuf
    bool gated = false;    ///< kBlockIncrementers backpressure engaged
    std::deque<DeferredWait> gated_frames;  ///< deferred while gated
    std::vector<std::shared_ptr<WaitReg>> waits;  ///< for the sweeps
    bool dead = false;
    bool has_session = false;  ///< Hello received
    std::uint64_t session_hi = 0;
    std::uint64_t session_lo = 0;
  };

  // ---- client sessions (idempotent retries) -----------------------

  /// Dedup state for one Hello session UUID.  Sessions outlive
  /// connections — that is the point: the reconnected client re-sends
  /// its unacknowledged increments under the same session, and the
  /// window absorbs the ones that had already landed.
  struct Session {
    DedupWindow window;
    std::uint64_t last_used = 0;  ///< LRU clock value
  };

  struct SessionKeyHash {
    std::size_t operator()(
        const std::pair<std::uint64_t, std::uint64_t>& k) const noexcept {
      return static_cast<std::size_t>(k.first ^ (k.second * 0x9e3779b97f4a7c15ULL));
    }
  };

  struct Timer {
    std::chrono::steady_clock::time_point deadline;
    /// null = no parked wait: re-arm the listeners, and wake the loop
    /// for a deferred wait's deadline (retry_gated answers it).  An
    /// early re-arm is harmless: a still-failing accept pauses again.
    std::shared_ptr<WaitReg> reg;
    bool operator>(const Timer& o) const { return deadline > o.deadline; }
  };

  // ---- state ------------------------------------------------------

  ServerOptions opts;
  counter_value_t inline_max;  ///< default spec's max_value()
  CounterTable table;
  std::unordered_map<int, Connection> conns;
  std::priority_queue<Timer, std::vector<Timer>, std::greater<Timer>> timers;

  std::unordered_map<std::pair<std::uint64_t, std::uint64_t>, Session,
                     SessionKeyHash>
      sessions;
  std::uint64_t lru_clock = 0;

  int uds_fd = -1;
  int tcp_fd = -1;
  int epoll_fd = -1;  ///< every fd below is registered here once
  int wake_fd = -1;   ///< eventfd: Stop/Drain, SIGTERM
  bool accept_paused = false;  ///< listeners unwatched after EMFILE
  std::uint16_t bound_tcp_port = 0;
  std::thread loop;
  std::atomic<bool> stopping{false};
  std::atomic<bool> drain_requested{false};
  std::atomic<bool> drained{false};
  bool started = false;

  // Durable state (opts.state_file), loop-thread-owned.  The epoch is
  // a statistic: stats() and Hello read it.
  std::uint64_t generation = 1;  ///< snapshot/journal glue
  int journal_fd = -1;
  std::string journal_pending;        ///< this tick's records
  std::size_t journal_since_rotate = 0;
  bool journal_write_failed = false;  ///< warn-once latch

  // Loop-side statistics; atomics only because stats() reads them
  // from other threads.
  StatBlock<ServerStats> stats;
  /// Spun nanoseconds not yet a whole microsecond of loop_spin_us.
  std::uint64_t spin_ns_carry = 0;

  explicit Impl(ServerOptions o)
      : opts(std::move(o)), inline_max(checked_default_max(opts.default_spec)) {
    if (opts.max_sessions == 0) opts.max_sessions = 1;
  }

  ~Impl() {
    stop();
    for (const int fd : {journal_fd, wake_fd, epoll_fd}) {
      if (fd >= 0) ::close(fd);
    }
  }

  bool persist() const { return !opts.state_file.empty(); }
  std::string journal_path() const { return opts.state_file + ".journal"; }

  // ---- counters ---------------------------------------------------

  using Extra = CounterTable::Extra;
  static constexpr std::size_t kNone = CounterTable::kNone;

  /// Creates the counter `name` names (absent, and table.fits() it)
  /// with `spec` (empty = default) and returns its index.  Throws
  /// std::invalid_argument when make_counter refuses the spec — the
  /// caller decides whether that is kBadRequest (wire) or a skip
  /// (restore of a spec written by a newer binary).  A default-spec
  /// counter gets no engine here; see built().
  std::size_t create(std::string_view name, std::uint32_t tag,
                     std::string_view spec) {
    Extra extra;
    if (!spec.empty() && spec != opts.default_spec) {
      extra.spec = std::string(spec);
      extra.engine = make_counter(extra.spec, loop_executor());
    }
    const std::size_t i = table.append(name, tag);
    if (extra.engine) table.add_extra(i, std::move(extra));
    stats.add(ServerStat::counters_open);
    return i;
  }

  /// The restore-side open path (snapshot, journal replay).  A counter
  /// that cannot be created (its spec stopped parsing, or the table is
  /// full) is dropped, and the compacting snapshot then erases its
  /// value for good — so the drop is reported, with its cause, never
  /// silent.
  std::size_t find_or_create(std::string_view name, std::string_view spec) {
    const std::uint32_t tag = CounterTable::tag_of(name);
    const std::size_t i = table.find(name, tag);
    if (i != kNone) return i;
    std::string why = "counter table full";
    if (table.fits(name)) {
      try {
        return create(name, tag, spec);
      } catch (const std::invalid_argument& e) {
        why = std::string("its spec no longer parses: ") + e.what();
      }
    }
    std::fprintf(stderr,
                 "monotonic-server: restore dropped counter '%.*s' "
                 "(spec '%.*s'): %s\n",
                 static_cast<int>(name.size()), name.data(),
                 static_cast<int>(spec.size()), spec.data(), why.c_str());
    return kNone;
  }

  /// The counter's side entry with its engine, built on first need for
  /// a default-spec counter — a parked wait, a Poison, a per-counter
  /// Stats — and seeded with the value it held inline.  Like every
  /// engine here it completes waits inline: an OnReach fires on the
  /// loop thread, inside the add() or poison() that reaches it.
  Extra& built(std::size_t i) {
    if (Extra* extra = table.extra(i)) return *extra;
    Extra extra;
    extra.engine = make_counter(opts.default_spec, loop_executor());
    if (table.value(i) > 0) extra.engine->Increment(table.value(i));
    return table.add_extra(i, std::move(extra));
  }

  counter_value_t value(std::size_t i) { return table.value(i); }

  bool poisoned(std::size_t i) {
    const Extra* extra = table.extra(i);
    return extra && extra->engine->poisoned();
  }

  const std::string& spec_of(std::size_t i) {
    const Extra* extra = table.extra(i);
    return extra && !extra->spec.empty() ? extra->spec : opts.default_spec;
  }

  /// Paper §7's Increment: an OnReach the amount reaches fires here,
  /// inline, after the table holds the new value its reply reports.
  void add(std::size_t i, counter_value_t amount) {
    table.value(i) += amount;
    if (Extra* extra = table.extra(i)) extra->engine->Increment(amount);
  }

  /// True when `amount` would carry the value out of range; the default
  /// spec's max_value() bounds a counter without an engine.
  bool overflows(std::size_t i, counter_value_t amount) {
    const Extra* extra = table.extra(i);
    const counter_value_t max = extra ? extra->engine->max_value() : inline_max;
    return amount > max - value(i);
  }

  // ---- lifecycle --------------------------------------------------

  void start() {
    if (started) return;
    if (epoll_fd < 0) {
      epoll_fd = ::epoll_create1(EPOLL_CLOEXEC);
      if (epoll_fd < 0) throw_errno("epoll_create1");
      wake_fd = ::eventfd(0, EFD_NONBLOCK | EFD_CLOEXEC);
      if (wake_fd < 0) throw_errno("eventfd");
      if (!watch(wake_fd, EPOLL_CTL_ADD, EPOLLIN)) throw_errno("epoll_ctl");
    }
    // Restore BEFORE the listeners bind: no client can observe a
    // partially restored name table.
    if (persist()) restore_state();
    if (opts.drain_on_sigterm) {
      g_sigterm_pending.store(0, std::memory_order_relaxed);
      g_sigterm_wake_fd.store(wake_fd, std::memory_order_relaxed);
      struct sigaction sa{};
      sa.sa_handler = sigterm_handler;
      ::sigemptyset(&sa.sa_mask);
      ::sigaction(SIGTERM, &sa, nullptr);
    }
    if (!opts.uds_path.empty()) bind_uds();
    if (opts.tcp_port != 0 || opts.tcp_any_port) bind_tcp();
    started = true;
    stopping.store(false);
    drain_requested.store(false);
    drained.store(false);
    loop = std::thread([this] { run(); });
  }

  // ---- durable state: restore / journal / snapshot ----------------

  /// Start-time restore: snapshot, then journal replay, then an
  /// immediate compacting snapshot under a fresh generation.  Runs on
  /// the caller's thread before the loop exists, so it may touch
  /// everything freely.
  void restore_state() {
    StateSnapshot snap;
    std::unordered_map<std::uint64_t, std::size_t> id_map;  // old id → index
    const bool have_snap = load_snapshot(opts.state_file, snap);
    if (have_snap) {
      stats.set(ServerStat::epoch, snap.epoch + 1);
      generation = snap.generation;
      for (const CounterRecord& rec : snap.counters) {
        const std::size_t i = find_or_create(rec.name, rec.spec);
        if (i == kNone) continue;  // dropped and reported
        id_map[rec.id] = i;
        if (rec.value > 0) add(i, rec.value);
        if (rec.poisoned) poison(i, rec.poison_reason);
      }
      for (const SessionRecord& rec : snap.sessions) {
        Session& s = touch_session(rec.hi, rec.lo);
        s.window.restore(rec);
      }
    }
    std::vector<JournalRecord> records;
    if (load_journal(journal_path(), generation, records)) {
      for (const JournalRecord& rec : records) {
        switch (rec.op) {
          case JournalOp::kOpen: {
            const std::size_t i = find_or_create(rec.name, rec.spec);
            if (i != kNone) id_map[rec.id] = i;
            break;
          }
          case JournalOp::kIncrement: {
            auto it = id_map.find(rec.id);
            if (it == id_map.end()) break;
            if (poisoned(it->second)) break;
            if ((rec.session_hi | rec.session_lo) != 0) {
              Session& s = touch_session(rec.session_hi, rec.session_lo);
              if (s.window.seen(rec.seq)) break;  // snapshot had it
              s.window.record(rec.seq);
            }
            add(it->second, rec.amount);
            break;
          }
          case JournalOp::kPoison: {
            auto it = id_map.find(rec.id);
            if (it == id_map.end()) break;
            poison(it->second, rec.reason);
            break;
          }
        }
      }
    }
    stats.set(ServerStat::restored_counters,
              stats.get(ServerStat::counters_open));
    // Compact: everything just replayed becomes the new snapshot; the
    // journal restarts empty under generation+1 (the old journal can
    // no longer be double-applied).
    write_snapshot();
  }

  /// Poisons a counter with a wire-style reason, recording the reason
  /// for the next snapshot.
  void poison(std::size_t i, const std::string& reason) {
    Extra& extra = built(i);
    extra.poison_reason = reason;
    extra.engine->Poison(std::make_exception_ptr(CounterPoisonedError(
        reason.empty() ? "poisoned via wire" : reason)));
  }

  /// Appends one record to this tick's journal buffer.  The buffer is
  /// written + fsynced by commit_journal() BEFORE flush_writes() — the
  /// group-commit ordering that makes "acked" imply "durable".
  void journal_append(std::string body) {
    if (!persist()) return;
    append_journal_record(journal_pending, body);
    stats.add(ServerStat::journal_records);
  }

  void commit_journal() {
    if (journal_pending.empty()) return;
    if (journal_fd >= 0) {
      if (!detail::write_all(journal_fd, journal_pending)) {
        if (!journal_write_failed) {
          journal_write_failed = true;
          std::fprintf(stderr,
                       "monotonic-server: journal write to %s failed (%s); "
                       "durability degraded until the next snapshot\n",
                       journal_path().c_str(), std::strerror(errno));
        }
      } else if (opts.journal_fsync) {
        ::fsync(journal_fd);
      }
    }
    journal_since_rotate += journal_pending.size();
    stats.set(ServerStat::journal_bytes, journal_since_rotate);
    journal_pending.clear();
  }

  /// Full snapshot + journal rotation.  The tick's un-committed
  /// journal records are superseded by the snapshot (their effects are
  /// already in the table), so they are dropped, not synced.
  void write_snapshot() {
    if (!persist()) return;
    StateSnapshot snap;
    snap.epoch = stats.get(ServerStat::epoch);
    snap.generation = generation + 1;
    snap.dedup_window = DedupWindow(opts.dedup_window).window();
    for (std::size_t i = 0; i < table.size(); ++i) {
      CounterRecord rec;
      rec.id = i + 1;
      rec.name = table.name(i);
      rec.spec = spec_of(i);
      rec.value = value(i);
      rec.poisoned = poisoned(i);
      if (const Extra* extra = table.extra(i)) {
        rec.poison_reason = extra->poison_reason;
      }
      snap.counters.push_back(std::move(rec));
    }
    for (const auto& [key, session] : sessions) {
      SessionRecord rec;
      rec.hi = key.first;
      rec.lo = key.second;
      rec.max_seq = session.window.max_seq();
      rec.bits = session.window.bits();
      snap.sessions.push_back(std::move(rec));
    }
    if (!save_snapshot(opts.state_file, snap)) {
      std::fprintf(stderr,
                   "monotonic-server: snapshot write to %s failed (%s)\n",
                   opts.state_file.c_str(), std::strerror(errno));
      return;
    }
    ++generation;
    journal_pending.clear();
    rotate_journal();
    stats.add(ServerStat::snapshots_written);
  }

  void rotate_journal() {
    if (journal_fd >= 0) ::close(journal_fd);
    journal_fd = ::open(journal_path().c_str(),
                        O_WRONLY | O_CREAT | O_TRUNC | O_APPEND | O_CLOEXEC,
                        0644);
    if (journal_fd >= 0) {
      detail::write_all(journal_fd, encode_journal_header(generation));
      ::fsync(journal_fd);
      journal_write_failed = false;
    }
    journal_since_rotate = 0;
    stats.set(ServerStat::journal_bytes, 0);
  }

  // ---- sessions ---------------------------------------------------

  Session& touch_session(std::uint64_t hi, std::uint64_t lo) {
    const auto key = std::make_pair(hi, lo);
    auto it = sessions.find(key);
    if (it == sessions.end()) {
      if (sessions.size() >= opts.max_sessions) evict_lru_session();
      it = sessions.emplace(key, Session{DedupWindow(opts.dedup_window), 0})
               .first;
      stats.set(ServerStat::sessions_open, sessions.size());
    }
    it->second.last_used = ++lru_clock;
    return it->second;
  }

  void evict_lru_session() {
    auto victim = sessions.begin();
    for (auto it = sessions.begin(); it != sessions.end(); ++it) {
      if (it->second.last_used < victim->second.last_used) victim = it;
    }
    if (victim != sessions.end()) sessions.erase(victim);
    stats.set(ServerStat::sessions_open, sessions.size());
  }

  void bind_uds() {
    uds_fd = ::socket(AF_UNIX, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
    if (uds_fd < 0) throw_errno("socket(AF_UNIX)");
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    if (opts.uds_path.size() >= sizeof(addr.sun_path)) {
      throw std::invalid_argument("uds_path too long: " + opts.uds_path);
    }
    std::memcpy(addr.sun_path, opts.uds_path.c_str(), opts.uds_path.size() + 1);
    ::unlink(opts.uds_path.c_str());
    if (::bind(uds_fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
      throw_errno("bind(AF_UNIX)");
    }
    if (::listen(uds_fd, 128) != 0) throw_errno("listen(AF_UNIX)");
    if (!watch(uds_fd, EPOLL_CTL_ADD, EPOLLIN)) throw_errno("epoll_ctl");
  }

  void bind_tcp() {
    tcp_fd = ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
    if (tcp_fd < 0) throw_errno("socket(AF_INET)");
    const int one = 1;
    ::setsockopt(tcp_fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = htons(opts.tcp_port);
    if (::bind(tcp_fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
      throw_errno("bind(127.0.0.1)");
    }
    if (::listen(tcp_fd, 128) != 0) throw_errno("listen(tcp)");
    if (!watch(tcp_fd, EPOLL_CTL_ADD, EPOLLIN)) throw_errno("epoll_ctl");
    socklen_t len = sizeof(addr);
    ::getsockname(tcp_fd, reinterpret_cast<sockaddr*>(&addr), &len);
    bound_tcp_port = ntohs(addr.sin_port);
  }

  void stop() {
    if (!started) return;
    stopping.store(true);
    poke_eventfd(wake_fd);
    if (loop.joinable()) loop.join();
    for (auto& [fd, conn] : conns) unwatch_and_close(fd);
    conns.clear();
    close_listeners();
    started = false;
  }

  void close_listeners() {
    for (int* fd : {&uds_fd, &tcp_fd}) {
      if (*fd >= 0) unwatch_and_close(std::exchange(*fd, -1));
    }
    accept_paused = false;
    if (!opts.uds_path.empty()) ::unlink(opts.uds_path.c_str());
  }

  /// Level-triggered: an fd reports for as long as it is ready.
  bool watch(int fd, int op, std::uint32_t events) {
    epoll_event ev{};
    ev.events = events;
    ev.data.fd = fd;
    return ::epoll_ctl(epoll_fd, op, fd, &ev) == 0;
  }

  /// Deregisters before closing: close() alone leaves the registration
  /// live while a forked child still holds the socket, and its events
  /// would then arrive under an fd number since reused.
  void unwatch_and_close(int fd) {
    ::epoll_ctl(epoll_fd, EPOLL_CTL_DEL, fd, nullptr);
    ::close(fd);
  }

  // ---- event loop -------------------------------------------------

  /// How long the loop polls before it parks.  A park sleeps the loop's
  /// CPU, and the next request then pays to wake it (on a VM, a
  /// hypervisor wake): a short spin keeps a busy loop awake, and costs a
  /// sparse one a single window per burst (see wait_for_events()).
  static constexpr std::chrono::microseconds kSpin{50};

  void run() {
    const bool may_spin = several_cpus();
    // No spin until a wait has been short: there is no traffic yet.
    auto last_wait = std::chrono::steady_clock::duration::max();
    constexpr int kMaxEvents = 256;
    epoll_event events[kMaxEvents];
    std::vector<int> ready;
    while (!stopping.load(std::memory_order_relaxed)) {
      const int n = wait_for_events(events, kMaxEvents, may_spin, last_wait);
      if (stopping.load(std::memory_order_relaxed)) break;

      // Dispatch may open or close connections, so connection fds are
      // collected first and looked up again below.
      ready.clear();
      for (int k = 0; k < n; ++k) {
        const int fd = events[k].data.fd;
        if (fd == wake_fd) {
          std::uint64_t pokes = 0;
          [[maybe_unused]] ssize_t r = ::read(wake_fd, &pokes, sizeof(pokes));
        } else if (fd == uds_fd || fd == tcp_fd) {
          accept_all(fd);
        } else {
          ready.push_back(fd);
        }
      }
      for (int fd : ready) {
        auto it = conns.find(fd);
        if (it == conns.end()) continue;
        handle_io(it->second);
      }

      expire_timers();
      retry_gated();
      // Group commit: this tick's journal records hit disk BEFORE any
      // of this tick's responses leave in flush_writes() — an acked
      // increment (or an observed kReached) is durable by the time the
      // client sees it.
      commit_journal();
      maybe_snapshot();
      flush_writes();
      reap_dead();

      if (drain_due()) {
        perform_drain();
        break;
      }
    }
  }

  bool drain_due() const {
    return drain_requested.load(std::memory_order_relaxed) ||
           (opts.drain_on_sigterm &&
            g_sigterm_pending.load(std::memory_order_relaxed) != 0);
  }

  /// True when retry_gated() would admit a deferred wait now.  A fire
  /// in a later connection's dispatch or a disconnect in reap_dead()
  /// frees capacity after the tick's retry_gated(), and no event wakes
  /// the loop for it.
  bool gated_admissible() const {
    return stats.get(ServerStat::gated_connections) != 0 &&
           stats.get(ServerStat::parked_waits) < opts.max_parked_waits;
  }

  /// The tick's epoll_wait.  When nothing is ready, it polls for up to
  /// kSpin before it blocks, except on one CPU or after a wait that
  /// outlasted kSpin.  The spin never runs past the next timer deadline.
  /// On Stop, a drain or gated_admissible() it ends at once and the wait
  /// does not block.  `last_wait` carries the previous wait's length in
  /// and this one's out.
  int wait_for_events(epoll_event* events, int max, bool may_spin,
                      std::chrono::steady_clock::duration& last_wait) {
    using clock = std::chrono::steady_clock;
    const auto must_not_block = [this] {
      return stopping.load(std::memory_order_relaxed) || drain_due() ||
             gated_admissible();
    };
    const auto begin = clock::now();
    int n = ::epoll_wait(epoll_fd, events, max, 0);
    if (n == 0 && may_spin && last_wait <= kSpin) {
      auto until = begin + kSpin;
      if (!timers.empty()) until = std::min(until, timers.top().deadline);
      auto now = begin;
      while (n == 0 && now < until && !must_not_block()) {
        n = ::epoll_wait(epoll_fd, events, max, 0);
        now = clock::now();
      }
      spin_ns_carry += static_cast<std::uint64_t>(
          std::chrono::nanoseconds(now - begin).count());
      stats.add(ServerStat::loop_spin_us, spin_ns_carry / 1000);
      spin_ns_carry %= 1000;
    }
    if (n == 0 && !must_not_block()) {
      stats.add(ServerStat::loop_parks);
      n = ::epoll_wait(epoll_fd, events, max, wait_timeout_ms());
    }
    last_wait = clock::now() - begin;
    return std::max(n, 0);  // -1: EINTR
  }

  /// Rewrite the snapshot once the journal outgrows its budget —
  /// bounds crash-replay time without fsync-per-request cost.
  void maybe_snapshot() {
    if (persist() && journal_since_rotate > opts.snapshot_journal_bytes) {
      write_snapshot();
    }
  }

  /// The orderly exit (Drain() / SIGTERM): everything a crash would
  /// lose or a client would have to discover the hard way is settled
  /// explicitly — waits answered kShuttingDown (typed, so retry-aware
  /// clients back off instead of storming the dead listener), state
  /// snapshotted, response buffers flushed best-effort.
  void perform_drain() {
    close_listeners();  // refuse new work first

    for (auto& [fd, conn] : conns) {
      for (const auto& reg : conn.waits) {
        if (settle(*reg) == nullptr) continue;
        respond(conn, Status::kShuttingDown, reg->req_id);
        stats.add(ServerStat::shutdown_replies);
      }
      // Frames deferred under backpressure get the same answer: their
      // req_id is at a fixed offset in the deferred payload.
      while (!conn.gated_frames.empty()) {
        const std::string frame = std::move(conn.gated_frames.front().frame);
        conn.gated_frames.pop_front();
        Reader r(frame);
        std::uint8_t op = 0;
        std::uint64_t req_id = 0;
        if (r.get_u8(op) && r.get_u64(req_id)) {
          respond(conn, Status::kShuttingDown, req_id);
          stats.add(ServerStat::shutdown_replies);
        }
      }
      if (conn.gated) {
        conn.gated = false;
        stats.sub(ServerStat::gated_connections);
      }
    }

    commit_journal();
    write_snapshot();

    // Best-effort flush of the kShuttingDown replies: bounded, so a
    // stuck client cannot hold the drain hostage.
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::milliseconds(500);
    for (;;) {
      flush_writes();
      reap_dead();
      bool pending = false;
      for (auto& [fd, conn] : conns) {
        if (conn.woff < conn.wbuf.size()) pending = true;
      }
      if (!pending || std::chrono::steady_clock::now() >= deadline) break;
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    drained.store(true, std::memory_order_release);
    stopping.store(true, std::memory_order_relaxed);
  }

  int wait_timeout_ms() {
    using namespace std::chrono;
    if (timers.empty()) return 1000;
    const auto now = steady_clock::now();
    if (timers.top().deadline <= now) return 0;
    const auto ms = duration_cast<milliseconds>(timers.top().deadline - now);
    return static_cast<int>(std::clamp<long long>(ms.count() + 1, 1, 1000));
  }

  void accept_all(int listen_fd) {
    for (;;) {
      const int fd =
          ::accept4(listen_fd, nullptr, nullptr, SOCK_NONBLOCK | SOCK_CLOEXEC);
      if (fd < 0) {
        if (errno == EMFILE || errno == ENFILE || errno == ENOBUFS ||
            errno == ENOMEM) {
          pause_accept();
        }
        return;
      }
      if (!watch(fd, EPOLL_CTL_ADD, EPOLLIN)) {
        ::close(fd);
        continue;
      }
      Connection conn;
      conn.fd = fd;
      conn.gen = ++next_gen_;
      conns.emplace(fd, std::move(conn));
      stats.add(ServerStat::connections_accepted);
      stats.add(ServerStat::connections_open);
    }
  }
  std::uint64_t next_gen_ = 0;

  /// Out of fds, a listener stays readable and every wait would return
  /// at once.  Unwatch the listeners until a connection closes
  /// (reap_dead) or, at the latest, 100 ms on (a listener-less Timer).
  void pause_accept() {
    if (accept_paused) return;
    accept_paused = true;
    for (const int fd : {uds_fd, tcp_fd}) {
      if (fd >= 0) watch(fd, EPOLL_CTL_MOD, 0);
    }
    timers.push(Timer{
        std::chrono::steady_clock::now() + std::chrono::milliseconds(100),
        nullptr});
  }

  void resume_accept() {
    if (!accept_paused) return;
    accept_paused = false;
    for (const int fd : {uds_fd, tcp_fd}) {
      if (fd >= 0) watch(fd, EPOLL_CTL_MOD, EPOLLIN);
    }
  }

  // ---- per-connection I/O -----------------------------------------

  void handle_io(Connection& conn) {
    char buf[64 * 1024];
    for (;;) {
      const ssize_t n = ::read(conn.fd, buf, sizeof(buf));
      if (n > 0) {
        stats.add(ServerStat::bytes_in, static_cast<std::uint64_t>(n));
        conn.rbuf.append(buf, static_cast<std::size_t>(n));
        if (n < static_cast<ssize_t>(sizeof(buf))) break;
        continue;
      }
      if (n == 0) {
        conn.dead = true;
        return;
      }
      if (errno == EAGAIN || errno == EWOULDBLOCK) break;
      conn.dead = true;
      return;
    }
    parse_frames(conn);
  }

  void parse_frames(Connection& conn) {
    // A gated connection's input waits for retry_gated(), in order.
    while (!conn.dead && !conn.gated) {
      const std::size_t avail = conn.rbuf.size() - conn.roff;
      if (avail < 4) break;
      Reader len_r(conn.rbuf.data() + conn.roff, 4);
      std::uint32_t len = 0;
      len_r.get_u32(len);
      // A frame must at least carry opcode + req_id; an oversized or
      // runt length word means the stream cannot be resynchronized —
      // name the offense in a final kBadRequest (req_id 0: the frame
      // header never parsed, so there is no id to echo), then drop the
      // connection.  The reply still flushes: the tick's flush_writes
      // runs before reap_dead closes the fd.
      if (len < 9 || len > kMaxFramePayload) {
        stats.add(ServerStat::protocol_errors);
        respond_message(
            conn, Status::kBadRequest, 0,
            "unframeable length " + std::to_string(len) + " (frames carry " +
                std::to_string(kMaxFramePayload) +
                " payload bytes at most, 9 at least); closing connection");
        conn.dead = true;
        return;
      }
      if (avail < 4 + len) break;
      const std::string_view payload(conn.rbuf.data() + conn.roff + 4, len);
      conn.roff += 4 + len;
      dispatch(conn, payload);
    }
    if (conn.roff == conn.rbuf.size()) {
      conn.rbuf.clear();
      conn.roff = 0;
    } else if (conn.roff > 64 * 1024) {
      conn.rbuf.erase(0, conn.roff);
      conn.roff = 0;
    }
  }

  void respond(Connection& conn, Status status, std::uint64_t req_id,
               std::string_view body = {}) {
    conn.wbuf += make_frame(static_cast<std::uint8_t>(status), req_id, body);
    stats.add(ServerStat::responses);
    // A consumer that stops reading does not get to grow wbuf without
    // bound: past the cap the connection is dropped, not the server.
    if (opts.max_outbound_bytes != 0 &&
        conn.wbuf.size() - conn.woff > opts.max_outbound_bytes && !conn.dead) {
      stats.add(ServerStat::slow_consumer_disconnects);
      conn.dead = true;
    }
  }

  void respond_message(Connection& conn, Status status, std::uint64_t req_id,
                       std::string_view message) {
    std::string body;
    put_str16(body, message);
    respond(conn, status, req_id, body);
  }

  // ---- request dispatch -------------------------------------------

  void dispatch(Connection& conn, std::string_view payload) {
    stats.add(ServerStat::requests);
    Reader r(payload);
    std::uint8_t op = 0;
    std::uint64_t req_id = 0;
    r.get_u8(op);       // parse_frames guaranteed 9 bytes,
    r.get_u64(req_id);  // so these cannot fail
    switch (static_cast<Op>(op)) {
      case Op::kOpen:
        return do_open(conn, req_id, r);
      case Op::kIncrement:
        return do_increment(conn, req_id, r);
      case Op::kCheck:
      case Op::kOnReach:
      case Op::kCheckFor:
        return do_wait(conn, req_id, r, static_cast<Op>(op), payload);
      case Op::kPoison:
        return do_poison(conn, req_id, r);
      case Op::kStats:
        return do_stats(conn, req_id, r);
      case Op::kHello:
        return do_hello(conn, req_id, r);
      case Op::kResolve:
        return do_resolve(conn, req_id, r);
    }
    bad_request(conn, req_id, "unknown opcode " + std::to_string(op));
  }

  void bad_request(Connection& conn, std::uint64_t req_id,
                   std::string_view what) {
    stats.add(ServerStat::protocol_errors);
    respond_message(conn, Status::kBadRequest, req_id, what);
  }

  void unknown_counter(Connection& conn, std::uint64_t req_id,
                       std::uint64_t id) {
    respond_message(conn, Status::kUnknownCounter, req_id,
                    "no counter with id " + std::to_string(id));
  }

  void poisoned_below_level(Connection& conn, std::uint64_t req_id,
                            std::size_t i) {
    respond_message(conn, Status::kPoisoned, req_id,
                    "counter '" + std::string(table.name(i)) +
                        "' poisoned below level");
  }

  void do_open(Connection& conn, std::uint64_t req_id, Reader& r) {
    std::string_view name, spec;
    if (!r.get_str16(name) || !r.get_str16(spec) || name.empty()) {
      return bad_request(conn, req_id, "Open: want name+spec, non-empty name");
    }
    const std::uint32_t tag = CounterTable::tag_of(name);
    std::size_t i = table.find(name, tag);
    if (i == kNone) {
      // Fresh create (reopen returns the same id, spec ignored —
      // names are the identity).
      if ((opts.max_counters != 0 &&
           stats.get(ServerStat::counters_open) >= opts.max_counters) ||
          !table.fits(name)) {
        stats.add(ServerStat::overload_rejections);
        return respond_message(conn, Status::kOverloaded, req_id,
                               "counter limit reached");
      }
      try {
        i = create(name, tag, spec);
      } catch (const std::invalid_argument& e) {
        return bad_request(conn, req_id, "Open: bad spec '" +
                                             std::string(spec) +
                                             "': " + e.what());
      }
      if (persist()) {
        journal_append(journal_open_body(i + 1, name, spec_of(i)));
      }
    }
    std::string body;
    put_u64(body, i + 1);
    put_u64(body, value(i));
    respond(conn, Status::kOk, req_id, body);
  }

  void do_hello(Connection& conn, std::uint64_t req_id, Reader& r) {
    std::uint64_t hi = 0, lo = 0;
    if (!r.get_u64(hi) || !r.get_u64(lo)) {
      return bad_request(conn, req_id, "Hello: want session_hi+session_lo");
    }
    conn.has_session = (hi | lo) != 0;
    conn.session_hi = hi;
    conn.session_lo = lo;
    std::uint64_t window = 0;
    if (conn.has_session) window = touch_session(hi, lo).window.window();
    std::string body;
    put_u64(body, stats.get(ServerStat::epoch));
    put_u64(body, window);
    respond(conn, Status::kOk, req_id, body);
  }

  void do_resolve(Connection& conn, std::uint64_t req_id, Reader& r) {
    std::string_view name;
    if (!r.get_str16(name) || name.empty()) {
      return bad_request(conn, req_id, "Resolve: want non-empty name");
    }
    const std::size_t i = table.find(name, CounterTable::tag_of(name));
    if (i == kNone) {
      return respond_message(conn, Status::kUnknownCounter, req_id,
                             "no counter named '" + std::string(name) + "'");
    }
    std::string body;
    put_u64(body, i + 1);
    put_u64(body, value(i));
    respond(conn, Status::kOk, req_id, body);
  }

  void do_increment(Connection& conn, std::uint64_t req_id, Reader& r) {
    std::uint64_t id = 0, amount = 0;
    std::uint8_t flags = 0;
    if (!r.get_u64(id) || !r.get_u64(amount) || !r.get_u8(flags)) {
      return bad_request(conn, req_id, "Increment: want id+amount+flags");
    }
    const bool ack = (flags & kIncrementNoAck) == 0;
    std::uint64_t seq = 0;
    if ((flags & kIncrementHasSeq) != 0 && !r.get_u64(seq)) {
      return bad_request(conn, req_id,
                         "Increment: has-seq flag set but no trailing seq");
    }
    const std::size_t i = table.index(id);
    if (i == kNone) {
      if (ack) unknown_counter(conn, req_id, id);
      return;
    }
    if (poisoned(i)) {
      // The engine absorbs post-poison increments as counted drops;
      // an acked client gets the typed error instead of a silent ok.
      // Checked before dedup on purpose: the seq is NOT recorded, and
      // a retried pre-poison increment that did land answers through
      // the seen() branch below — the frozen value already counts it.
      if (ack) {
        respond_message(conn, Status::kPoisoned, req_id,
                        "counter '" + std::string(table.name(i)) +
                            "' is poisoned");
      }
      return;
    }
    // Refused before the dedup window, journal and ack: an increment
    // that is applied must fit.
    if (overflows(i, amount)) {
      if (ack) {
        bad_request(conn, req_id, "Increment: overflows counter '" +
                                      std::string(table.name(i)) + "'");
      }
      return;
    }
    if (seq != 0 && conn.has_session) {
      Session& session = touch_session(conn.session_hi, conn.session_lo);
      if (session.window.seen(seq)) {
        // A retry of an increment that already landed: ack as if it
        // just succeeded — at-least-once delivery, exactly-once apply.
        stats.add(ServerStat::dedup_hits);
        if (ack) respond(conn, Status::kOk, req_id);
        return;
      }
      session.window.record(seq);
    }
    if (persist()) {
      journal_append(journal_increment_body(id, amount, conn.session_hi,
                                            conn.session_lo, seq));
    }
    // A wait this reaches answers before the ack; both replies leave
    // after the tick's commit_journal().
    add(i, amount);
    if (ack) respond(conn, Status::kOk, req_id);
  }

  /// `deadline` is set only when retry_gated re-runs a deferred
  /// CheckFor; a fresh one's deadline counts from when it is parsed.
  void do_wait(Connection& conn, std::uint64_t req_id, Reader& r, Op op,
               std::string_view payload,
               std::optional<std::chrono::steady_clock::time_point> deadline =
                   std::nullopt) {
    const bool timed = op == Op::kCheckFor;
    std::uint64_t id = 0, level = 0, timeout_ns = 0;
    if (!r.get_u64(id) || !r.get_u64(level) ||
        (timed && !r.get_u64(timeout_ns))) {
      return bad_request(conn, req_id, "wait: want id+level[+timeout_ns]");
    }
    const std::size_t i = table.index(id);
    if (i == kNone) return unknown_counter(conn, req_id, id);
    // Fast path: already reached — answer inline, no registration.
    const counter_value_t now = value(i);
    if (now >= level) {
      std::string body;
      put_u64(body, now);
      return respond(conn, Status::kReached, req_id, body);
    }
    if (poisoned(i)) return poisoned_below_level(conn, req_id, i);
    if (timed) {
      const auto t = std::chrono::steady_clock::now();
      if (!deadline) deadline = t + std::chrono::nanoseconds(timeout_ns);
      if (*deadline <= t) return respond(conn, Status::kTimedOut, req_id);
    }

    // Admission control over parked waits: the engine's overload
    // policies mapped onto connections (see server.hpp).
    if (opts.max_parked_waits != 0 &&
        stats.get(ServerStat::parked_waits) >= opts.max_parked_waits) {
      switch (opts.overload_policy) {
        case OverloadPolicy::kThrow:
          stats.add(ServerStat::overload_rejections);
          return respond_message(
              conn, Status::kOverloaded, req_id,
              "wait admission: " + std::to_string(opts.max_parked_waits) +
                  " waits already parked");
        case OverloadPolicy::kBlockIncrementers: {
          // Backpressure: defer this frame and stop reading the
          // connection; retry_gated() re-dispatches when capacity
          // frees.  The client's pipelined traffic stalls in the
          // socket buffer — its incrementers feel the overload.
          // A timed frame keeps its deadline: the timer wakes the
          // loop then, and retry_gated answers it.
          if (!conn.gated) {
            conn.gated = true;
            stats.add(ServerStat::gated_connections);
          }
          const auto until = deadline.value_or(DeferredWait::kUntimed);
          conn.gated_frames.push_back({std::string(payload), until});
          if (timed) timers.push(Timer{*deadline, nullptr});
          return;
        }
      }
    }

    auto reg = make_reg(conn, req_id, i, level);
    stats.add(ServerStat::parked_waits);
    if (timed) timers.push(Timer{*deadline, reg});
    // Parked connection: the engine holds the registration and fires
    // it on this thread, inside the add() or poison() that reaches the
    // level.  A reg that a timer, disconnect or drain settled first
    // makes the fire a no-op.
    built(i).engine->OnReach(
        level,
        [this, reg] {
          if (Connection* owner = settle(*reg)) {
            std::string body;
            put_u64(body, value(reg->counter));
            respond(*owner, Status::kReached, reg->req_id, body);
          }
        },
        [this, reg](std::exception_ptr ep) {
          if (Connection* owner = settle(*reg)) {
            respond_message(*owner, Status::kPoisoned, reg->req_id,
                            exception_message(std::move(ep)));
          }
        });
  }

  /// Settles `reg` unless another party settled it first, dropping the
  /// parked gauge.  Returns the connection owed the reply: null when
  /// the wait was already settled or its connection is gone.
  Connection* settle(WaitReg& reg) {
    if (std::exchange(reg.settled, true)) return nullptr;
    stats.sub(ServerStat::parked_waits);
    auto it = conns.find(reg.fd);
    return it != conns.end() && it->second.gen == reg.gen ? &it->second
                                                          : nullptr;
  }

  std::shared_ptr<WaitReg> make_reg(Connection& conn, std::uint64_t req_id,
                                    std::size_t counter,
                                    counter_value_t level) {
    auto reg = std::make_shared<WaitReg>();
    reg->fd = conn.fd;
    reg->gen = conn.gen;
    reg->req_id = req_id;
    reg->counter = counter;
    reg->level = level;
    // Prune settled regs before growing, so a long-lived connection
    // keeps only its live parks; amortized O(1).
    if (conn.waits.size() == conn.waits.capacity()) {
      std::erase_if(conn.waits, [](const std::shared_ptr<WaitReg>& w) {
        return w->settled;
      });
      conn.waits.reserve(2 * conn.waits.size());
    }
    conn.waits.push_back(reg);
    return reg;
  }

  void do_poison(Connection& conn, std::uint64_t req_id, Reader& r) {
    std::uint64_t id = 0;
    std::string_view reason;
    if (!r.get_u64(id) || !r.get_str16(reason)) {
      return bad_request(conn, req_id, "Poison: want id+reason");
    }
    const std::size_t i = table.index(id);
    if (i == kNone) return unknown_counter(conn, req_id, id);
    poison(i, std::string(reason));
    if (persist()) journal_append(journal_poison_body(id, reason));
    respond(conn, Status::kOk, req_id);
  }

  /// Stats(0) sends every server statistic; Stats(id) sends the
  /// counter's value, every engine statistic and its poisoned flag.
  /// Each pair is a str16 key and a u64 value, after a u32 count.
  void do_stats(Connection& conn, std::uint64_t req_id, Reader& r) {
    std::uint64_t id = 0;
    if (!r.get_u64(id)) return bad_request(conn, req_id, "Stats: want id");
    std::string pairs;
    std::uint32_t count = 0;
    const auto put = [&](std::string_view key, std::uint64_t value) {
      put_str16(pairs, key);
      put_u64(pairs, value);
      ++count;
    };
    if (id == 0) {
      for_each_stat(stats.snapshot(), put);
    } else {
      const std::size_t i = table.index(id);
      if (i == kNone) return unknown_counter(conn, req_id, id);
      const AnyCounter& counter = *built(i).engine;
      put("value", counter.value_lower_bound());
      for_each_stat(counter.stats(), put);
      put("poisoned", counter.poisoned() ? 1 : 0);
    }
    std::string body;
    put_u32(body, count);
    respond(conn, Status::kOk, req_id, body + pairs);
  }

  // ---- tick work --------------------------------------------------

  void expire_timers() {
    const auto now = std::chrono::steady_clock::now();
    while (!timers.empty() && timers.top().deadline <= now) {
      std::shared_ptr<WaitReg> reg = timers.top().reg;
      timers.pop();
      if (!reg) {
        resume_accept();
        continue;
      }
      if (Connection* owner = settle(*reg)) {
        respond(*owner, Status::kTimedOut, reg->req_id);
      }
    }
  }

  /// kBlockIncrementers: when capacity frees, or a deferred CheckFor's
  /// deadline passes, re-dispatch deferred frames and resume reading
  /// the gated connections.
  void retry_gated() {
    if (stats.get(ServerStat::gated_connections) == 0) return;
    const auto now = std::chrono::steady_clock::now();
    for (auto& [fd, conn] : conns) {
      if (!conn.gated) continue;
      while (!conn.gated_frames.empty()) {
        if (conn.gated_frames.front().deadline > now &&
            opts.max_parked_waits != 0 &&
            stats.get(ServerStat::parked_waits) >=
                opts.max_parked_waits) {
          break;  // still over capacity; stay gated
        }
        const DeferredWait d = std::move(conn.gated_frames.front());
        conn.gated_frames.pop_front();
        conn.gated = false;  // do_wait may re-gate (and re-defer)
        stats.sub(ServerStat::gated_connections);
        // Past its deadline, do_wait answers kReached or kTimedOut.
        Reader r(d.frame);
        std::uint8_t op = 0;
        std::uint64_t req_id = 0;
        r.get_u8(op);       // dispatch parsed this frame once already,
        r.get_u64(req_id);  // so these cannot fail
        do_wait(conn, req_id, r, static_cast<Op>(op), d.frame, d.deadline);
        if (conn.gated) break;
      }
      if (!conn.gated && conn.gated_frames.empty()) {
        // Input deferred while gated is still in rbuf; parse it now.
        parse_frames(conn);
      }
    }
  }

  void flush_writes() {
    for (auto& [fd, conn] : conns) {
      while (conn.woff < conn.wbuf.size()) {
        // MSG_NOSIGNAL: a client that vanished mid-response is an
        // EPIPE (conn.dead below), not a process-killing SIGPIPE.
        const ssize_t n = ::send(fd, conn.wbuf.data() + conn.woff,
                                 conn.wbuf.size() - conn.woff, MSG_NOSIGNAL);
        if (n > 0) {
          conn.woff += static_cast<std::size_t>(n);
          stats.add(ServerStat::bytes_out, static_cast<std::uint64_t>(n));
          continue;
        }
        if (n < 0 && errno == EINTR) continue;  // signal landed mid-write
        if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
        conn.dead = true;
        break;
      }
      if (conn.woff == conn.wbuf.size()) {
        conn.wbuf.clear();
        conn.woff = 0;
      } else if (conn.woff > 256 * 1024) {
        conn.wbuf.erase(0, conn.woff);
        conn.woff = 0;
      }
      // Level-triggered, so watch only what the tick can act on: no
      // input while gated (kBlockIncrementers), and writability only
      // while bytes wait, or every wait would return at once.
      std::uint32_t events = 0;
      if (!conn.gated) events |= EPOLLIN;
      if (conn.woff < conn.wbuf.size()) events |= EPOLLOUT;
      if (events != conn.events && watch(fd, EPOLL_CTL_MOD, events)) {
        conn.events = events;
      }
    }
  }

  /// The death sweep: a connection that disconnected while parked on
  /// OnReach must not leak its registrations.  Settling each live reg
  /// tombstones it — the engine's eventual fire is a no-op — and the
  /// parked_waits gauge drops NOW, which is what the Stats op reports
  /// and the robustness test asserts.
  void reap_dead() {
    for (auto it = conns.begin(); it != conns.end();) {
      Connection& conn = it->second;
      if (!conn.dead) {
        ++it;
        continue;
      }
      for (const auto& reg : conn.waits) settle(*reg);
      if (conn.gated) stats.sub(ServerStat::gated_connections);
      unwatch_and_close(conn.fd);
      stats.sub(ServerStat::connections_open);
      it = conns.erase(it);
      resume_accept();  // a freed fd may take a pending connection
    }
  }
};

CounterServer::CounterServer(ServerOptions options)
    : impl_(std::make_unique<Impl>(std::move(options))) {}

CounterServer::~CounterServer() = default;

void CounterServer::Start() { impl_->start(); }

void CounterServer::Stop() { impl_->stop(); }

void CounterServer::Drain() {
  // NOT stop(): stop's `stopping` flag would end the loop before the
  // tick reaches the drain check.  Request the drain, wake the loop,
  // join it (the drain itself sets `stopping` when it finishes), then
  // run stop() for the fd cleanup.
  impl_->drain_requested.store(true, std::memory_order_relaxed);
  poke_eventfd(impl_->wake_fd);
  if (impl_->loop.joinable()) impl_->loop.join();
  impl_->stop();
}

bool CounterServer::drained() const noexcept {
  return impl_->drained.load(std::memory_order_acquire);
}

std::uint64_t CounterServer::epoch() const noexcept {
  return impl_->stats.get(ServerStat::epoch);
}

std::uint16_t CounterServer::tcp_port() const noexcept {
  return impl_->bound_tcp_port;
}

ServerStats CounterServer::stats() const { return impl_->stats.snapshot(); }

}  // namespace monotonic::server

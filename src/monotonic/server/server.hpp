// server.hpp — the counter-as-a-service server.
//
// The engine synchronizes threads in one process; the ROADMAP's
// production story is millions of *users*.  This server is the bridge:
// one event-loop thread multiplexes any number of client connections
// (UNIX-domain socket first, optional loopback TCP) over one dense
// counter table indexed by name — so "millions of named counters"
// costs millions of ~40 B table rows, not millions of threads.  A
// counter's `make_counter` engine (striped value plane, sharded wait
// index) is built when it is first needed: at Open for any spec but
// the default, and for a default-spec counter only when a wait parks
// on it, it is poisoned, or its Stats are read.
//
// The two engine mechanisms a server needs are reused rather than
// reinvented:
//
//   * parked waits ride the completion plane: a blocking Check parks a
//     CONNECTION as an OnReach registration.  Every engine is built
//     with one InlineExecutor (make_counter(spec, executor)), and the
//     loop is the only thread that increments or poisons it.  An
//     Increment is applied where the loop parses it (paper §7: add,
//     then release every level now reached), so a wait completes on
//     the loop, inside the request that reaches it, and its reply goes
//     straight into the connection's write buffer — no server thread
//     ever blocks on a counter, and the server starts no thread but
//     the loop;
//   * admission control rides OverloadPolicy: when parked waits exceed
//     max_parked_waits the policy decides — kThrow answers
//     kOverloaded (typed client-side as CounterOverloadedError),
//     kBlockIncrementers stops reading the offending connection until
//     capacity frees (backpressure the client's own pipelined
//     increments feel through the socket buffer); a deferred
//     CheckFor still times out at its deadline.  A counter spec's
//     overload=spin folds to block.
//
// Poison propagates end-to-end: a producer's Poison reaches parked
// connections through OnReach's on_error channel and is answered as a
// typed kPoisoned frame carrying the reason.
//
// A wait settles once, on the loop: the fire, a CheckFor timer, a
// disconnect or a drain, whichever comes first, marks its registration
// settled, and every later party does nothing.  So a connection that
// dies while parked does not leak: its registrations are tombstoned,
// the parked_waits gauge drops immediately, and a late engine fire is
// a no-op against the tombstone — observable via the Stats op
// ("parked_waits"), which the robustness test pins.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "monotonic/core/wait_list.hpp"  // OverloadPolicy
#include "monotonic/support/stat_block.hpp"

namespace monotonic::server {

struct ServerOptions {
  /// Filesystem path for the UNIX-domain listener ("" = no UDS).
  /// Unlinked on bind and again on shutdown.
  std::string uds_path;
  /// Loopback TCP listener port (0 = no TCP).  Pass a port of your
  /// choice or leave 0 and use UDS; tcp_port() reports the bound port
  /// when you pass 0 but set `tcp_any_port`.
  std::uint16_t tcp_port = 0;
  /// Bind TCP on an ephemeral port even when tcp_port == 0.
  bool tcp_any_port = false;
  /// Spec for counters opened with an empty spec string.  Such a
  /// counter holds a plain value and builds this engine only when a
  /// wait parks on it, it is poisoned or its Stats are read.  Lean: a
  /// parked wait is an OnReach registration, so wait-node pools would
  /// go unused.  Parsed once by the constructor, which throws
  /// std::invalid_argument when it does not parse or names a
  /// "shared:" segment, whose waits would complete off the loop.  An
  /// Open with a "shared:" spec is refused the same way (kBadRequest),
  /// and a spec's "executor=" token is ignored.
  std::string default_spec = "hybrid";
  /// Ignored: waits complete on the loop thread, so the server starts
  /// no completion pool.  Kept only because the benchmark reads it;
  /// the next benchmark change removes it.
  std::size_t executor_threads = 2;
  /// Admission control for parked waits across all connections
  /// (0 = unlimited).
  std::size_t max_parked_waits = 0;
  /// What to do with a wait that admission turns away; see the header
  /// comment for the wire semantics of each policy.
  OverloadPolicy overload_policy = OverloadPolicy::kThrow;
  /// Cap on open logical counters (0 = unlimited); excess Opens are
  /// answered kOverloaded.  The table's own limits answer the same:
  /// ids and name offsets are 32-bit, so at most 2^32 - 1 counters
  /// and 4 GiB of name bytes.
  std::size_t max_counters = 0;

  // ---- fault tolerance (docs/server.md, "Fault tolerance") --------

  /// Path of the durable state snapshot ("" = in-memory only, the
  /// pre-fault-tolerance behavior).  The journal lives next to it at
  /// `state_file + ".journal"`.  On Start the server restores every
  /// named counter from snapshot + journal at an equal-or-greater
  /// value under a bumped epoch; on Drain (and periodically, see
  /// snapshot_journal_bytes) it writes a fresh snapshot.
  std::string state_file;
  /// fsync the journal once per event-loop tick, BEFORE any of that
  /// tick's responses are written (group commit): an acked increment
  /// is on disk before the ack.  Turning this off trades the "acked
  /// implies durable" guarantee for throughput — a crash may then
  /// lose acked work back to the last sync.
  bool journal_fsync = true;
  /// Rewrite the snapshot (and truncate the journal) once the journal
  /// grows past this many bytes.  Bounds replay time after a crash.
  std::size_t snapshot_journal_bytes = 1 << 20;
  /// Per-session increment dedup window (rounded up to a multiple of
  /// 64).  A retried (session, seq) inside the window is applied at
  /// most once; seqs older than the window are conservatively treated
  /// as already applied.
  std::uint64_t dedup_window = 4096;
  /// Cap on tracked client sessions; the least-recently-used session
  /// is evicted past it (its retries then dedup as "too old: seen").
  std::size_t max_sessions = 1024;
  /// Disconnect a connection whose unsent response backlog exceeds
  /// this many bytes instead of buffering without bound (counted in
  /// stats().slow_consumer_disconnects).  0 = unlimited.
  std::size_t max_outbound_bytes = 8 << 20;
  /// Install a SIGTERM handler in Start() that triggers the same
  /// graceful drain as Drain(): parked waits answered kShuttingDown,
  /// listeners closed, snapshot written.  Process-wide (one draining
  /// server per process); off by default.
  bool drain_on_sigterm = false;
};

/// Server-wide statistics, declared once (support/stat_block.hpp):
/// X(name, kind, arg).  The Stats op with counter_id 0 sends each as a
/// self-describing key/value pair in this order; stats() returns the
/// same values in-process.
#define MONOTONIC_SERVER_STATS(X)                                             \
  X(connections_accepted, kTotal, 0)                                          \
  X(connections_open, kLevel, 0)                                              \
  X(counters_open, kLevel, 0)                                                 \
  X(requests, kTotal, 0)                                                      \
  X(responses, kTotal, 0)                                                     \
  X(parked_waits, kLevel, 0)      /* live parked Check/OnReach waits */       \
  X(gated_connections, kLevel, 0) /* connections under backpressure */        \
  X(overload_rejections, kTotal, 0)                                           \
  X(protocol_errors, kTotal, 0)   /* bad frames answered or dropped */        \
  X(bytes_in, kTotal, 0)                                                      \
  X(bytes_out, kTotal, 0)                                                     \
  X(epoch, kConfig, 1)            /* bumped on every restore */               \
  X(restored_counters, kConfig, 0) /* counters revived at Start */            \
  X(snapshots_written, kTotal, 0)                                             \
  X(journal_records, kTotal, 0)                                               \
  X(journal_bytes, kLevel, 0)     /* since the last snapshot */               \
  X(sessions_open, kLevel, 0)     /* tracked Hello sessions */                \
  X(dedup_hits, kTotal, 0)        /* retried increments absorbed */           \
  X(slow_consumer_disconnects, kTotal, 0)                                     \
  X(shutdown_replies, kTotal, 0)  /* waits answered kShuttingDown */          \
  X(loop_parks, kTotal, 0)        /* event-loop waits that blocked */         \
  X(loop_spin_us, kTotal, 0)      /* event-loop time spun polling */

/// Plain-value snapshot of the server-wide statistics.
struct ServerStats {
  MONOTONIC_SERVER_STATS(MONOTONIC_STAT_FIELD)
};

/// The event-loop server.  Construct, Start(), connect clients
/// (client.hpp), Stop() — Stop drains nothing: parked waits die with
/// the process, like parked threads would.
class CounterServer {
 public:
  /// Throws std::invalid_argument when options.default_spec is bad.
  explicit CounterServer(ServerOptions options);
  ~CounterServer();

  CounterServer(const CounterServer&) = delete;
  CounterServer& operator=(const CounterServer&) = delete;

  /// Binds the listeners and spawns the event-loop thread.  Throws
  /// std::system_error when a listener cannot be bound.
  void Start();

  /// Wakes the loop, joins it, closes every fd.  Idempotent.  Abrupt:
  /// parked waits die unanswered and no snapshot is written (the
  /// journal still holds everything acked) — the crash-shaped stop.
  void Stop();

  /// Graceful drain, the SIGTERM path: refuses new connections,
  /// answers every parked wait kShuttingDown (typed — a
  /// retry-aware client backs off instead of storming), writes a final
  /// snapshot, best-effort-flushes response buffers, then stops.  Idempotent; blocks until the loop exits.
  void Drain();

  /// True once a drain (Drain() or SIGTERM) has completed — the hook
  /// a forked server process uses to exit cleanly after SIGTERM.
  bool drained() const noexcept;

  /// Current server epoch: 1 on a fresh start, +1 per restore.  The
  /// Hello op reports this to clients.
  std::uint64_t epoch() const noexcept;

  /// Actual TCP port (after Start with tcp_any_port), 0 when no TCP.
  std::uint16_t tcp_port() const noexcept;

  /// In-process snapshot of the server-wide stats.
  ServerStats stats() const;

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

}  // namespace monotonic::server

namespace monotonic {
MONOTONIC_STAT_LIST(server::ServerStats, MONOTONIC_SERVER_STATS);
}  // namespace monotonic

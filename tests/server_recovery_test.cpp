// server_recovery_test.cpp — the fault-tolerant service plane, proven
// the hard way: state files torn and checksummed, servers SIGKILLed
// mid-workload and restarted from snapshot + journal, clients
// reconnecting through seeded chaos, increments retried and applied
// exactly once, drains answered typed.
//
// The suite leans on one invariant for every assertion: monotonicity.
// A restore may only land a counter at an EQUAL-OR-GREATER value than
// any value a client was shown (a reached Check must never un-reach),
// and a retried increment must move the value by its amount AT MOST
// once.  Everything here is some concrete violation of one of those
// two, injected and shown not to happen.
//
// The kill-point schedule is seed-swept: MONOTONIC_SERVER_KILL_SEEDS
// ("3" or "1 2 7") widens the sweep in CI's chaos job; each seed
// shifts where in the workload the SIGKILL lands.  A failing run
// prints its seed.

#include <gtest/gtest.h>

#include <libgen.h>
#include <signal.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "monotonic/core/counter_error.hpp"
#include "monotonic/server/chaos_proxy.hpp"
#include "monotonic/server/client.hpp"
#include "monotonic/server/protocol.hpp"
#include "monotonic/server/server.hpp"
#include "monotonic/server/state_file.hpp"

namespace ms = monotonic::server;
using monotonic::CounterEpochChangedError;
using monotonic::CounterShutdownError;
using monotonic::CounterTimeoutError;

namespace {

std::string unique_path(const char* tag) {
  static int seq = 0;
  return "/tmp/mc_recovery_" + std::string(tag) + "_" +
         std::to_string(::getpid()) + "_" + std::to_string(seq++);
}

std::vector<std::uint64_t> seeds_from_env(const char* var,
                                          std::vector<std::uint64_t> dflt) {
  const char* env = std::getenv(var);
  if (env == nullptr || *env == '\0') return dflt;
  std::vector<std::uint64_t> seeds;
  std::istringstream in(env);
  std::uint64_t s;
  while (in >> s) seeds.push_back(s);
  return seeds.empty() ? dflt : seeds;
}

/// Path of the exec'd server child: sibling of this test binary.
std::string child_binary() {
  char self[4096];
  const ssize_t n = ::readlink("/proc/self/exe", self, sizeof(self) - 1);
  if (n <= 0) return "./server_recovery_child";
  self[n] = '\0';
  return std::string(::dirname(self)) + "/server_recovery_child";
}

/// A forked+exec'd drainable server process on (sock, state).
class ServerProcess {
 public:
  ServerProcess(std::string sock, std::string state)
      : sock_(std::move(sock)), state_(std::move(state)) {
    spawn();
  }
  ~ServerProcess() { kill9(); }

  void spawn() {
    const std::string bin = child_binary();
    pid_ = ::fork();
    if (pid_ == 0) {
      ::execl(bin.c_str(), bin.c_str(), sock_.c_str(), state_.c_str(),
              static_cast<char*>(nullptr));
      std::perror("execl(server_recovery_child)");
      ::_exit(127);
    }
    ASSERT_GT(pid_, 0);
    wait_listening();
  }

  /// The crash: SIGKILL, no goodbye, no snapshot.
  void kill9() {
    if (pid_ <= 0) return;
    ::kill(pid_, SIGKILL);
    int status = 0;
    ::waitpid(pid_, &status, 0);
    pid_ = -1;
  }

  /// The rolling restart: SIGTERM → drain → exit 0.
  int sigterm_and_wait() {
    if (pid_ <= 0) return -1;
    ::kill(pid_, SIGTERM);
    int status = 0;
    ::waitpid(pid_, &status, 0);
    pid_ = -1;
    return WIFEXITED(status) ? WEXITSTATUS(status) : -WTERMSIG(status);
  }

  void restart() { spawn(); }

  const std::string& sock() const { return sock_; }
  pid_t pid() const { return pid_; }

 private:
  void wait_listening() {
    for (int i = 0; i < 1000; ++i) {
      try {
        ms::ServerClient probe = ms::ServerClient::connect_uds(sock_);
        return;
      } catch (...) {
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
      }
    }
    FAIL() << "server child never started listening on " << sock_;
  }

  std::string sock_;
  std::string state_;
  pid_t pid_ = -1;
};

ms::ClientOptions retry_options() {
  ms::ClientOptions o;
  o.retry.enabled = true;
  o.retry.backoff_initial = std::chrono::milliseconds(5);
  o.retry.backoff_max = std::chrono::milliseconds(100);
  o.retry.overall_deadline = std::chrono::milliseconds(20000);
  return o;
}

// ---- state_file.hpp: the durability primitives ----------------------

TEST(StateFile, SnapshotRoundTripsAndRejectsCorruption) {
  ms::StateSnapshot snap;
  snap.epoch = 7;
  snap.generation = 42;
  snap.dedup_window = 4096;
  snap.counters.push_back({3, "jobs/done", "pooled:64+hybrid", 123, false, ""});
  snap.counters.push_back({9, "failed", "basic", 5, true, "boom"});
  snap.sessions.push_back({0xa, 0xb, 77, std::vector<std::uint64_t>(64, 1)});

  const std::string path = unique_path("snap");
  ASSERT_TRUE(ms::save_snapshot(path, snap));
  ms::StateSnapshot back;
  ASSERT_TRUE(ms::load_snapshot(path, back));
  EXPECT_EQ(back.epoch, 7u);
  EXPECT_EQ(back.generation, 42u);
  ASSERT_EQ(back.counters.size(), 2u);
  EXPECT_EQ(back.counters[0].name, "jobs/done");
  EXPECT_EQ(back.counters[0].value, 123u);
  EXPECT_TRUE(back.counters[1].poisoned);
  EXPECT_EQ(back.counters[1].poison_reason, "boom");
  ASSERT_EQ(back.sessions.size(), 1u);
  EXPECT_EQ(back.sessions[0].max_seq, 77u);

  // Flip one byte in the middle: the checksum must reject the file.
  std::string bytes = ms::encode_snapshot(snap);
  bytes[bytes.size() / 2] ^= 0x40;
  ms::StateSnapshot corrupt;
  EXPECT_FALSE(ms::decode_snapshot(bytes, corrupt));
  ::unlink(path.c_str());
}

TEST(StateFile, JournalTornTailStopsReplayCleanly) {
  std::string journal = ms::encode_journal_header(5);
  ms::append_journal_record(journal, ms::journal_open_body(1, "c", "basic"));
  ms::append_journal_record(journal,
                            ms::journal_increment_body(1, 10, 0, 0, 0));
  const std::size_t intact = journal.size();
  ms::append_journal_record(journal,
                            ms::journal_increment_body(1, 99, 0, 0, 0));
  journal.resize(intact + 7);  // the crash landed mid-append

  const std::string path = unique_path("journal");
  {
    FILE* f = std::fopen(path.c_str(), "wb");
    ASSERT_NE(f, nullptr);
    std::fwrite(journal.data(), 1, journal.size(), f);
    std::fclose(f);
  }
  std::vector<ms::JournalRecord> records;
  ASSERT_TRUE(ms::load_journal(path, 5, records));
  ASSERT_EQ(records.size(), 2u);  // torn third record: replay stops, no error
  EXPECT_EQ(records[1].amount, 10u);

  // Generation mismatch = a journal already folded into a snapshot:
  // the double-apply guard must refuse it outright.
  EXPECT_FALSE(ms::load_journal(path, 6, records));
  ::unlink(path.c_str());
}

TEST(StateFile, DedupWindowAppliesEachSeqAtMostOnce) {
  ms::DedupWindow w(128);
  EXPECT_FALSE(w.seen(1));
  w.record(1);
  EXPECT_TRUE(w.seen(1));
  EXPECT_FALSE(w.seen(2));
  w.record(100);
  EXPECT_TRUE(w.seen(100));
  EXPECT_FALSE(w.seen(99));  // skipped, still claimable
  w.record(99);
  EXPECT_TRUE(w.seen(99));
  // Ancient seqs are conservatively "seen": dropping a duplicate is
  // safe for at-least-once delivery, double-applying is not.
  w.record(10'000);
  EXPECT_TRUE(w.seen(1));
  EXPECT_TRUE(w.seen(9'000));
  EXPECT_FALSE(w.seen(10'001));
  // seq 0 = "no seq": never deduped.
  EXPECT_FALSE(w.seen(0));
}

// ---- crash-shaped restarts (in-process) -----------------------------

TEST(Recovery, CrashRestartRestoresValuesUnderBumpedEpoch) {
  const std::string sock = unique_path("crash.sock");
  const std::string state = unique_path("crash.state");
  std::uint64_t old_epoch = 0;
  {
    ms::ServerOptions o;
    o.uds_path = sock;
    o.state_file = state;
    ms::CounterServer server(std::move(o));
    server.Start();
    old_epoch = server.epoch();
    ms::ServerClient c = ms::ServerClient::connect_uds(sock);
    const auto a = c.open("alpha");
    const auto b = c.open("beta", "list");
    c.increment(a.id, 41);
    c.increment(a.id, 1);
    EXPECT_EQ(c.check(a.id, 42), 42u);  // REACHED — must never regress
    c.increment(b.id, 7);
    c.poison(b.id, "producer exploded");
    server.Stop();  // the crash-shaped stop: no snapshot, journal only
  }
  {
    ms::ServerOptions o;
    o.uds_path = sock;
    o.state_file = state;
    ms::CounterServer server(std::move(o));
    server.Start();
    EXPECT_EQ(server.epoch(), old_epoch + 1);
    EXPECT_GE(server.stats().restored_counters, 2u);
    ms::ServerClient c = ms::ServerClient::connect_uds(sock);
    EXPECT_EQ(c.epoch(), old_epoch + 1);
    const auto a = c.resolve("alpha");  // Resolve: no create
    EXPECT_GE(a.value, 42u);            // equal-or-greater, the contract
    EXPECT_EQ(c.check(a.id, 42), a.value);  // the reached level holds
    const auto b = c.resolve("beta");
    EXPECT_GE(b.value, 7u);
    try {
      c.increment(b.id, 1);
      FAIL() << "poison must survive the restart";
    } catch (const monotonic::CounterPoisonedError&) {
    }
    EXPECT_THROW(c.resolve("never-existed"), std::invalid_argument);
    server.Stop();
  }
  ::unlink(state.c_str());
  ::unlink((state + ".journal").c_str());
}

TEST(Recovery, DuplicateRetriedIncrementsApplyExactlyOnce) {
  const std::string sock = unique_path("dedup.sock");
  const std::string state = unique_path("dedup.state");
  const std::uint64_t hi = 0x1111, lo = 0x2222;

  auto helloed_client = [&] {
    ms::ClientOptions o;
    o.session_hi = hi;
    o.session_lo = lo;
    return ms::ServerClient::connect_uds(sock, o);
  };
  auto send_seq_increment = [](ms::ServerClient& c, std::uint64_t id,
                               std::uint64_t amount, std::uint64_t seq) {
    std::string body;
    ms::put_u64(body, id);
    ms::put_u64(body, amount);
    ms::put_u8(body, ms::kIncrementHasSeq);
    ms::put_u64(body, seq);
    const auto resp = c.request(ms::Op::kIncrement, body);
    EXPECT_EQ(resp.status, ms::Status::kOk);
  };

  {
    ms::ServerOptions o;
    o.uds_path = sock;
    o.state_file = state;
    ms::CounterServer server(std::move(o));
    server.Start();
    ms::ServerClient c = helloed_client();
    const auto opened = c.open("exactly-once");
    send_seq_increment(c, opened.id, 5, /*seq=*/1);
    send_seq_increment(c, opened.id, 5, /*seq=*/1);  // duplicate: absorbed
    send_seq_increment(c, opened.id, 3, /*seq=*/2);
    EXPECT_EQ(c.check(opened.id, 8), 8u);  // 5 + 3, not 13
    EXPECT_EQ(server.stats().dedup_hits, 1u);
    server.Stop();  // crash-shaped
  }
  {
    // The dedup window survives the crash (journaled): a retry of a
    // pre-crash increment after restart must still be absorbed.
    ms::ServerOptions o;
    o.uds_path = sock;
    o.state_file = state;
    ms::CounterServer server(std::move(o));
    server.Start();
    ms::ServerClient c = helloed_client();
    const auto opened = c.resolve("exactly-once");
    EXPECT_EQ(opened.value, 8u);
    send_seq_increment(c, opened.id, 5, /*seq=*/1);  // ancient retry
    send_seq_increment(c, opened.id, 3, /*seq=*/2);  // ditto
    EXPECT_EQ(c.check(opened.id, 8), 8u);            // still 8
    EXPECT_EQ(server.stats().dedup_hits, 2u);
    server.Stop();
  }
  ::unlink(state.c_str());
  ::unlink((state + ".journal").c_str());
}

TEST(Recovery, RejectedOverflowNeverReachesTheJournal) {
  ms::ServerOptions o;
  o.uds_path = unique_path("overflow.sock");
  o.state_file = unique_path("overflow.state");
  {
    ms::CounterServer server(o);
    server.Start();
    ms::ServerClient c = ms::ServerClient::connect_uds(o.uds_path);
    const auto opened = c.open("bounded");
    c.increment(opened.id, 5);
    EXPECT_THROW(c.increment(opened.id, std::uint64_t{1} << 63),
                 std::invalid_argument);
    c.increment(opened.id, 2);
    server.Stop();  // crash-shaped: the restart replays the journal
  }
  {
    ms::CounterServer server(o);
    server.Start();
    ms::ServerClient c = ms::ServerClient::connect_uds(o.uds_path);
    EXPECT_EQ(c.resolve("bounded").value, 7u);
    server.Stop();
  }
  ::unlink(o.state_file.c_str());
  ::unlink((o.state_file + ".journal").c_str());
}

TEST(Recovery, BatchingSpecBufferedIncrementsReachTheSnapshot) {
  // A +batching spec (the server builds no batching layer) keeps every
  // acked increment: the compacting snapshot at Start and the drain's
  // snapshot both record them, and the spec still restores.
  ms::ServerOptions o;
  o.uds_path = unique_path("batching.sock");
  o.state_file = unique_path("batching.state");
  const auto phase = [&o](std::uint64_t expected, std::uint64_t amount,
                          bool drain) {
    ms::CounterServer server(o);
    server.Start();
    ms::ServerClient c = ms::ServerClient::connect_uds(o.uds_path);
    const auto opened = c.open("buffered", "hybrid+batching,batch=1000");
    EXPECT_EQ(opened.value, expected);
    c.increment(opened.id, amount);
    drain ? server.Drain() : server.Stop();
  };
  phase(0, 5, /*drain=*/false);  // the journal holds the 5
  phase(5, 2, /*drain=*/true);   // the Start-time snapshot must too
  phase(7, 0, /*drain=*/false);  // the drain's snapshot holds the 7
  ::unlink(o.state_file.c_str());
  ::unlink((o.state_file + ".journal").c_str());
}

TEST(Recovery, DeferredAndBuiltEnginesRestoreExactly) {
  // Three default-spec counters: "plain" never builds its engine,
  // "parked" builds it for a parked Check, "poisoned" for its Poison.
  ms::ServerOptions o;
  o.uds_path = unique_path("deferred.sock");
  o.state_file = unique_path("deferred.state");
  // Parks `waiter` at `level`, then releases it from a second
  // connection with an increment of `amount`.
  auto park_then_release = [&o](ms::CounterServer& server,
                                ms::ServerClient& waiter, std::uint64_t id,
                                std::uint64_t level, std::uint64_t amount) {
    const std::uint64_t rid = waiter.on_reach_async(id, level);
    for (int i = 0; i < 400 && server.stats().parked_waits == 0; ++i) {
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    ASSERT_EQ(server.stats().parked_waits, 1u);
    ms::ServerClient inc = ms::ServerClient::connect_uds(o.uds_path);
    inc.increment(id, amount);
    EXPECT_EQ(waiter.await_reach(rid), level);
  };
  {
    // Phase 1 ends in a drain: its values reach the snapshot.
    ms::CounterServer server(o);
    server.Start();
    ms::ServerClient c = ms::ServerClient::connect_uds(o.uds_path);
    const auto plain = c.open("plain");
    const auto parked = c.open("parked");
    const auto poisoned = c.open("poisoned");
    c.increment(plain.id, 3);
    c.increment(parked.id, 5);
    c.increment(poisoned.id, 7);
    park_then_release(server, c, parked.id, 6, 1);
    server.Drain();
  }
  {
    // Phase 2 restores the snapshot, then crash-stops: its own work
    // survives only in the journal.
    ms::CounterServer server(o);
    server.Start();
    ms::ServerClient c = ms::ServerClient::connect_uds(o.uds_path);
    const auto plain = c.resolve("plain");
    const auto parked = c.resolve("parked");
    const auto poisoned = c.resolve("poisoned");
    EXPECT_EQ(plain.value, 3u);
    EXPECT_EQ(parked.value, 6u);
    EXPECT_EQ(poisoned.value, 7u);
    c.increment(plain.id, 4);
    park_then_release(server, c, parked.id, 10, 4);
    c.increment(poisoned.id, 1);
    c.poison(poisoned.id, "halted at eight");
    server.Stop();
  }
  {
    // Phase 3: snapshot + journal replay lands every counter exactly.
    ms::CounterServer server(o);
    server.Start();
    EXPECT_EQ(server.stats().restored_counters, 3u);
    ms::ServerClient c = ms::ServerClient::connect_uds(o.uds_path);
    EXPECT_EQ(c.resolve("plain").value, 7u);
    EXPECT_EQ(c.resolve("parked").value, 10u);
    const auto poisoned = c.resolve("poisoned");
    EXPECT_EQ(poisoned.value, 8u);
    EXPECT_EQ(c.check(poisoned.id, 8), 8u);
    EXPECT_THROW(c.check(poisoned.id, 9), monotonic::CounterPoisonedError);
    EXPECT_THROW(c.increment(poisoned.id, 1), monotonic::CounterPoisonedError);
    server.Stop();
  }
  // The compacting snapshot the last Start wrote holds the same state,
  // poison reason included.
  ms::StateSnapshot snap;
  ASSERT_TRUE(ms::load_snapshot(o.state_file, snap));
  ASSERT_EQ(snap.counters.size(), 3u);
  for (const ms::CounterRecord& rec : snap.counters) {
    if (rec.name == "plain") {
      EXPECT_EQ(rec.value, 7u);
      EXPECT_FALSE(rec.poisoned);
    } else if (rec.name == "parked") {
      EXPECT_EQ(rec.value, 10u);
      EXPECT_FALSE(rec.poisoned);
    } else {
      EXPECT_EQ(rec.name, "poisoned");
      EXPECT_EQ(rec.value, 8u);
      EXPECT_TRUE(rec.poisoned);
      EXPECT_EQ(rec.poison_reason, "halted at eight");
    }
  }
  ::unlink(o.state_file.c_str());
  ::unlink((o.state_file + ".journal").c_str());
}

TEST(Recovery, RecordedListWaitPlaneSpecRestores) {
  // The server records a counter's spec as the client sent it, so state
  // files written while the list wait plane existed hold
  // "waitplane=list".  The spec still parses (as the default one-shard
  // index), so such a counter restores from the journal and from the
  // snapshot alike.
  ms::ServerOptions o;
  o.uds_path = unique_path("listspec.sock");
  o.state_file = unique_path("listspec.state");
  {
    ms::CounterServer server(o);
    server.Start();
    ms::ServerClient c = ms::ServerClient::connect_uds(o.uds_path);
    const auto legacy = c.open("legacy", "hybrid,waitplane=list");
    c.increment(legacy.id, 9);
    EXPECT_EQ(c.check(legacy.id, 9), 9u);
    server.Stop();  // journal only
  }
  {
    ms::CounterServer server(o);
    server.Start();
    EXPECT_EQ(server.stats().restored_counters, 1u);
    ms::ServerClient c = ms::ServerClient::connect_uds(o.uds_path);
    const auto legacy = c.resolve("legacy");
    EXPECT_EQ(legacy.value, 9u);
    c.increment(legacy.id, 1);
    server.Drain();  // writes the snapshot
  }
  {
    ms::CounterServer server(o);
    server.Start();
    EXPECT_EQ(server.stats().restored_counters, 1u);
    ms::ServerClient c = ms::ServerClient::connect_uds(o.uds_path);
    const auto legacy = c.resolve("legacy");
    EXPECT_EQ(legacy.value, 10u);
    EXPECT_EQ(c.check(legacy.id, 10), 10u);
    server.Stop();
  }
  ::unlink(o.state_file.c_str());
  ::unlink((o.state_file + ".journal").c_str());
}

TEST(Recovery, RestoresSparseShardSchemeIds) {
  // State files written while the server hashed names over four shards
  // hold sparse ids (index * 4 + shard + 1).  Restore maps them through
  // the snapshot and journal onto dense ids, and a retrying client's
  // in-flight operations follow its names across the epoch bump.
  ms::ServerOptions o;
  o.uds_path = unique_path("sparse.sock");
  o.state_file = unique_path("sparse.state");
  auto server = std::make_optional<ms::CounterServer>(o);
  server->Start();
  ms::ServerClient c =
      ms::ServerClient::connect_uds(o.uds_path, retry_options());
  const std::uint64_t alpha = c.open("alpha").id;
  const std::uint64_t beta = c.open("beta").id;
  const std::uint64_t gamma = c.open("gamma", "sharded:4+hybrid").id;
  // Parked now, answered after the restart under remapped ids.
  const std::uint64_t gamma_rid = c.on_reach_async(gamma, 31);
  const std::uint64_t beta_rid = c.on_reach_async(beta, 1000);
  const std::uint64_t first_epoch = c.epoch();
  server->Stop();  // crash; the test writes the state the restart reads

  ms::StateSnapshot snap;
  snap.epoch = first_epoch;
  snap.generation = 7;
  snap.dedup_window = 4096;
  // Restored in this order, so the new dense ids are gamma 1, alpha 2,
  // beta 3 — none equal to the id the client cached for the same name.
  snap.counters = {
      {11, "gamma", "sharded:4+hybrid", 30, false, ""},
      {1, "alpha", "hybrid", 10, false, ""},
      {6, "beta", "hybrid", 20, false, ""},
  };
  ASSERT_TRUE(ms::save_snapshot(o.state_file, snap));
  std::string journal = ms::encode_journal_header(snap.generation);
  for (const std::string& body : {
           ms::journal_increment_body(1, 5, 0, 0, 0),
           ms::journal_increment_body(6, 2, 0, 0, 0),
           ms::journal_open_body(16, "delta", "hybrid"),
           ms::journal_increment_body(16, 4, 0, 0, 0),
           ms::journal_poison_body(6, "beta halted"),
           ms::journal_increment_body(6, 100, 0, 0, 0),  // after the poison
           ms::journal_increment_body(11, 1, 0, 0, 0),
           ms::journal_increment_body(21, 9, 0, 0, 0),  // no such counter
       }) {
    ms::append_journal_record(journal, body);
  }
  {
    std::FILE* f = std::fopen((o.state_file + ".journal").c_str(), "wb");
    ASSERT_NE(f, nullptr);
    ASSERT_EQ(std::fwrite(journal.data(), 1, journal.size(), f),
              journal.size());
    std::fclose(f);
  }

  server.emplace(o);
  server->Start();
  EXPECT_EQ(server->epoch(), first_epoch + 1);
  EXPECT_EQ(server->stats().restored_counters, 4u);
  // The compacting snapshot Start wrote holds exact values, poison
  // state and reason, and specs, under dense ids.
  ms::StateSnapshot restored;
  ASSERT_TRUE(ms::load_snapshot(o.state_file, restored));
  ASSERT_EQ(restored.counters.size(), 4u);
  const std::vector<ms::CounterRecord> want = {
      {1, "gamma", "sharded:4+hybrid", 31, false, ""},
      {2, "alpha", "hybrid", 15, false, ""},
      {3, "beta", "hybrid", 22, true, "beta halted"},
      {4, "delta", "hybrid", 4, false, ""},
  };
  for (std::size_t i = 0; i < want.size(); ++i) {
    const ms::CounterRecord& got = restored.counters[i];
    SCOPED_TRACE(want[i].name);
    EXPECT_EQ(got.id, want[i].id);
    EXPECT_EQ(got.name, want[i].name);
    EXPECT_EQ(got.spec, want[i].spec);
    EXPECT_EQ(got.value, want[i].value);
    EXPECT_EQ(got.poisoned, want[i].poisoned);
    EXPECT_EQ(got.poison_reason, want[i].poison_reason);
  }
  EXPECT_EQ(server->stats().epoch, first_epoch + 1);

  // The increment below reconnects, remaps every id the client cached
  // (its own and the two parked waits') by name, and replays them.
  c.increment(alpha, 1);
  EXPECT_EQ(c.epoch(), first_epoch + 1);
  EXPECT_EQ(c.await_reach(gamma_rid), 31u);
  EXPECT_THROW(c.await_reach(beta_rid), monotonic::CounterPoisonedError);
  ms::ServerClient fresh = ms::ServerClient::connect_uds(o.uds_path);
  EXPECT_EQ(fresh.resolve("alpha").value, 16u);
  EXPECT_EQ(fresh.resolve("gamma").value, 31u);
  EXPECT_EQ(fresh.resolve("beta").value, 22u);
  EXPECT_EQ(fresh.resolve("delta").value, 4u);
  EXPECT_EQ(fresh.stats(fresh.resolve("gamma").id).at("stripe_count"), 4u);
  server->Stop();
  ::unlink(o.state_file.c_str());
  ::unlink((o.state_file + ".journal").c_str());
}

TEST(Recovery, RestoresSpecsNamingRemovedKnobs) {
  // State files hold raw specs, so knobs removed from the grammar must
  // still parse on restore: overload=spin folds to block, max_levels to
  // max_waiters, pool_size is ignored and a broadcast layer is dropped.
  ms::ServerOptions o;
  o.uds_path = unique_path("removed.sock");
  o.state_file = unique_path("removed.state");
  ms::StateSnapshot snap;
  snap.epoch = 1;
  snap.generation = 3;
  snap.dedup_window = 4096;
  snap.counters = {
      {1, "spin", "hybrid,overload=spin", 10, false, ""},
      {2, "levels", "list,max_levels=4", 20, false, ""},
  };
  ASSERT_TRUE(ms::save_snapshot(o.state_file, snap));
  std::string journal = ms::encode_journal_header(snap.generation);
  for (const std::string& body : {
           ms::journal_open_body(3, "pool", "hybrid,pool_size=8"),
           ms::journal_open_body(4, "bcast", "list+broadcast,shards=2"),
           ms::journal_increment_body(1, 1, 0, 0, 0),
           ms::journal_increment_body(3, 30, 0, 0, 0),
           ms::journal_increment_body(4, 40, 0, 0, 0),
       }) {
    ms::append_journal_record(journal, body);
  }
  {
    std::FILE* f = std::fopen((o.state_file + ".journal").c_str(), "wb");
    ASSERT_NE(f, nullptr);
    ASSERT_EQ(std::fwrite(journal.data(), 1, journal.size(), f),
              journal.size());
    std::fclose(f);
  }

  ms::CounterServer server(o);
  server.Start();
  EXPECT_EQ(server.stats().restored_counters, 4u);
  ms::ServerClient c = ms::ServerClient::connect_uds(o.uds_path);
  for (const auto& [name, value] :
       std::vector<std::pair<std::string, std::uint64_t>>{
           {"spin", 11}, {"levels", 20}, {"pool", 30}, {"bcast", 40}}) {
    SCOPED_TRACE(name);
    const auto got = c.resolve(name);
    EXPECT_EQ(got.value, value);
    EXPECT_EQ(c.check(got.id, value), value);
    // A wait above the value parks on the counter's engine and is
    // released by the next increment.
    const std::uint64_t rid = c.on_reach_async(got.id, value + 1);
    c.increment(got.id, 1);
    EXPECT_EQ(c.await_reach(rid), value + 1);
  }
  server.Stop();
  ::unlink(o.state_file.c_str());
  ::unlink((o.state_file + ".journal").c_str());
}

TEST(Recovery, RestoreReportsACounterItDrops) {
  // A spec that no longer parses cannot be restored, and the compacting
  // snapshot then erases the counter for good: the drop must be loud.
  ms::ServerOptions o;
  o.uds_path = unique_path("dropped.sock");
  o.state_file = unique_path("dropped.state");
  ms::StateSnapshot snap;
  snap.epoch = 1;
  snap.generation = 1;
  snap.dedup_window = 4096;
  snap.counters = {
      {1, "kept", "hybrid", 5, false, ""},
      {2, "lost", "hybrid,bogus=1", 9, false, ""},
  };
  ASSERT_TRUE(ms::save_snapshot(o.state_file, snap));
  ms::CounterServer server(o);
  ::testing::internal::CaptureStderr();
  server.Start();
  const std::string err = ::testing::internal::GetCapturedStderr();
  EXPECT_NE(err.find("'lost'"), std::string::npos) << err;
  EXPECT_NE(err.find("'hybrid,bogus=1'"), std::string::npos) << err;
  EXPECT_NE(err.find("its spec no longer parses"), std::string::npos) << err;
  EXPECT_EQ(err.find("'kept'"), std::string::npos) << err;
  EXPECT_EQ(server.stats().restored_counters, 1u);
  server.Stop();
  ::unlink(o.state_file.c_str());
  ::unlink((o.state_file + ".journal").c_str());
}

TEST(Recovery, EpochChangeSurfacesTypedWhenTransparencyDeclined) {
  const std::string sock = unique_path("epoch.sock");
  const std::string state = unique_path("epoch.state");
  auto server = std::make_optional<ms::CounterServer>([&] {
    ms::ServerOptions o;
    o.uds_path = sock;
    o.state_file = state;
    return o;
  }());
  server->Start();

  ms::ClientOptions copts = retry_options();
  copts.retry.transparent_reresolve = false;  // the opt-out under test
  ms::ServerClient c = ms::ServerClient::connect_uds(sock, copts);
  const auto opened = c.open("ids-are-my-problem");
  c.increment(opened.id, 1);
  const std::uint64_t first_epoch = c.epoch();

  server->Stop();  // crash
  server.emplace([&] {
    ms::ServerOptions o;
    o.uds_path = sock;
    o.state_file = state;
    return o;
  }());
  server->Start();  // restore → epoch bump

  try {
    c.increment(opened.id, 1);
    FAIL() << "epoch change must surface when transparency is declined";
  } catch (const CounterEpochChangedError& e) {
    EXPECT_EQ(e.old_epoch(), first_epoch);
    EXPECT_EQ(e.new_epoch(), first_epoch + 1);
  }
  server->Stop();
  ::unlink(state.c_str());
  ::unlink((state + ".journal").c_str());
}

// ---- deadlines (satellite: no more blocking forever) ----------------

TEST(Deadlines, SilentServerSurfacesTimeoutNotHang) {
  // A blackhole proxy in front of a live server: the connection is
  // alive at the socket level, dead at the protocol level (every byte
  // discarded, nothing ever answered) — the shape io_timeout exists
  // for, and the shape that used to block a client forever.
  const std::string sock = unique_path("blackhole_up.sock");
  ms::ServerOptions so;
  so.uds_path = sock;
  ms::CounterServer server(std::move(so));
  server.Start();

  ms::ChaosProxyOptions po;
  po.listen_path = unique_path("blackhole.sock");
  po.upstream_path = sock;
  po.blackhole = true;
  ms::ChaosProxy proxy(po);
  proxy.Start();

  ms::ClientOptions copts;
  copts.io_timeout = std::chrono::milliseconds(150);
  const auto t0 = std::chrono::steady_clock::now();
  try {
    ms::ServerClient c = ms::ServerClient::connect_uds(po.listen_path, copts);
    FAIL() << "the Hello await must time out against a blackhole";
  } catch (const CounterTimeoutError&) {
  }
  const auto waited = std::chrono::steady_clock::now() - t0;
  EXPECT_LT(waited, std::chrono::seconds(5));  // bounded, not a hang
  proxy.Stop();
  server.Stop();
}

// ---- graceful drain -------------------------------------------------

TEST(Drain, AnswersParkedWaitsTypedAndWritesSnapshot) {
  const std::string sock = unique_path("drain.sock");
  const std::string state = unique_path("drain.state");
  auto server = std::make_optional<ms::CounterServer>([&] {
    ms::ServerOptions o;
    o.uds_path = sock;
    o.state_file = state;
    return o;
  }());
  server->Start();

  ms::ServerClient c = ms::ServerClient::connect_uds(sock);
  const auto opened = c.open("drainee");
  c.increment(opened.id, 9);
  const std::uint64_t rid = c.on_reach_async(opened.id, 1'000'000);  // parks
  for (int i = 0; i < 400 && server->stats().parked_waits == 0; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  ASSERT_EQ(server->stats().parked_waits, 1u);

  server->Drain();
  EXPECT_TRUE(server->drained());
  EXPECT_GE(server->stats().shutdown_replies, 1u);
  EXPECT_GE(server->stats().snapshots_written, 1u);
  try {
    c.await_reach(rid);
    FAIL() << "a drained wait must surface the typed shutdown error";
  } catch (const CounterShutdownError&) {
  }
  // The listener is gone: a fresh connect is refused, not parked.
  EXPECT_THROW(ms::ServerClient::connect_uds(sock), std::exception);

  // The snapshot it wrote restores the value without journal replay.
  ms::StateSnapshot snap;
  ASSERT_TRUE(ms::load_snapshot(state, snap));
  ASSERT_EQ(snap.counters.size(), 1u);
  EXPECT_EQ(snap.counters[0].value, 9u);
  server.reset();
  ::unlink(state.c_str());
  ::unlink((state + ".journal").c_str());
}

// ---- forked-process suite: real SIGKILL, real SIGTERM ---------------

TEST(ForkedRecovery, Kill9MidWorkloadClientFinishesExactlyOnce) {
  for (const std::uint64_t seed :
       seeds_from_env("MONOTONIC_SERVER_KILL_SEEDS", {1, 2})) {
    SCOPED_TRACE("seed=" + std::to_string(seed));
    const std::string sock = unique_path("kill9.sock");
    const std::string state = unique_path("kill9.state");
    ServerProcess server(sock, state);

    ms::ServerClient c = ms::ServerClient::connect_uds(sock, retry_options());
    const auto opened = c.open("survivor");
    const std::uint64_t first_epoch = c.epoch();

    constexpr std::uint64_t kTotal = 60;
    const std::uint64_t kill_at = 10 + (seed * 13) % 35;  // seed-swept point
    std::uint64_t reached_before_kill = 0;
    for (std::uint64_t i = 1; i <= kTotal; ++i) {
      c.increment(opened.id, 1);  // acked, seq-tagged, replayed on loss
      if (i == kill_at) {
        reached_before_kill = c.check(opened.id, i);  // REACHED: pinned below
        server.kill9();
        server.restart();
      }
    }
    EXPECT_GE(reached_before_kill, kill_at);

    // Zero app-visible errors above; now the books must balance
    // EXACTLY — every retried increment applied once, none lost.
    const std::uint64_t final_value = c.check(opened.id, kTotal);
    EXPECT_EQ(final_value, kTotal);
    EXPECT_EQ(c.epoch(), first_epoch + 1);  // the restore was observed
    // And the name re-resolved to a live id under the new epoch.
    ms::ServerClient fresh = ms::ServerClient::connect_uds(sock);
    EXPECT_EQ(fresh.resolve("survivor").value, kTotal);
  }
}

TEST(ForkedRecovery, SigtermDrainsParkedWaitsAndExitsZero) {
  const std::string sock = unique_path("term.sock");
  const std::string state = unique_path("term.state");
  ServerProcess server(sock, state);

  ms::ServerClient c = ms::ServerClient::connect_uds(sock);
  const auto opened = c.open("drain-me");
  const std::uint64_t rid = c.on_reach_async(opened.id, 1'000'000);
  std::this_thread::sleep_for(std::chrono::milliseconds(50));  // let it park

  EXPECT_EQ(server.sigterm_and_wait(), 0);  // drained() gated the exit
  try {
    c.await_reach(rid);
    FAIL() << "SIGTERM drain must answer the parked wait kShuttingDown";
  } catch (const CounterShutdownError&) {
  }
}

TEST(ForkedRecovery, RetryClientRidesRollingRestartTransparently) {
  const std::string sock = unique_path("rolling.sock");
  const std::string state = unique_path("rolling.state");
  ServerProcess server(sock, state);

  ms::ServerClient c = ms::ServerClient::connect_uds(sock, retry_options());
  const auto opened = c.open("rolling");
  for (int i = 0; i < 5; ++i) c.increment(opened.id, 1);

  EXPECT_EQ(server.sigterm_and_wait(), 0);  // drain + final snapshot
  server.restart();                         // the rolling restart

  c.increment(opened.id, 1);  // reconnects, re-resolves, succeeds
  EXPECT_EQ(c.check(opened.id, 6), 6u);
}

// ---- chaos proxy: protocol robustness under injected faults ---------

TEST(Chaos, FramesSplitIntoSingleBytesStillRoundTrip) {
  const std::string sock = unique_path("split.sock");
  ms::ServerOptions so;
  so.uds_path = sock;
  ms::CounterServer server(std::move(so));
  server.Start();

  ms::ChaosProxyOptions po;
  po.listen_path = unique_path("split_proxy.sock");
  po.upstream_path = sock;
  po.max_chunk = 1;  // every frame crosses one byte at a time
  ms::ChaosProxy proxy(po);
  proxy.Start();

  ms::ServerClient c = ms::ServerClient::connect_uds(po.listen_path);
  const auto opened = c.open("byte-at-a-time");
  c.increment(opened.id, 3);
  EXPECT_EQ(c.check(opened.id, 3), 3u);
  EXPECT_GT(proxy.bytes_forwarded(), 0u);
  proxy.Stop();
  server.Stop();
}

TEST(Chaos, TruncatedMidFrameConnectionsLeakNothing) {
  const std::string sock = unique_path("trunc.sock");
  ms::ServerOptions so;
  so.uds_path = sock;
  ms::CounterServer server(std::move(so));
  server.Start();

  for (const std::uint64_t seed :
       seeds_from_env("MONOTONIC_CHAOS_SEEDS", {1, 2, 3})) {
    SCOPED_TRACE("seed=" + std::to_string(seed));
    ms::ChaosProxyOptions po;
    po.listen_path = unique_path("trunc_proxy.sock");
    po.upstream_path = sock;
    po.seed = seed;
    po.cut_after_min = 5;  // inside the Hello frame most of the time
    po.cut_after_max = 60;
    ms::ChaosProxy proxy(po);
    proxy.Start();

    // Drive traffic until the cut lands; every outcome is acceptable
    // EXCEPT a hang or a leak.
    try {
      ms::ClientOptions copts;
      copts.io_timeout = std::chrono::milliseconds(2000);
      ms::ServerClient c =
          ms::ServerClient::connect_uds(po.listen_path, copts);
      for (int i = 0; i < 100; ++i) c.increment(1, 1);
    } catch (const std::exception&) {
      // the cut, surfacing as EOF/timeout — expected
    }
    EXPECT_GE(proxy.connections_cut(), 1u);
    proxy.Stop();

    // The server itself: unharmed, nothing parked, still serving.
    ms::ServerClient direct = ms::ServerClient::connect_uds(sock);
    const auto opened = direct.open("post-chaos-" + std::to_string(seed));
    direct.increment(opened.id, 1);
    EXPECT_EQ(direct.check(opened.id, 1), 1u);
    EXPECT_EQ(server.stats().parked_waits, 0u);
  }
  server.Stop();
}

TEST(Chaos, RetryClientThroughCuttingProxyAppliesExactlyOnce) {
  const std::string sock = unique_path("cutretry.sock");
  const std::string state = unique_path("cutretry.state");
  ms::ServerOptions so;
  so.uds_path = sock;
  so.state_file = state;
  ms::CounterServer server(std::move(so));
  server.Start();

  for (const std::uint64_t seed :
       seeds_from_env("MONOTONIC_CHAOS_SEEDS", {7, 8})) {
    SCOPED_TRACE("seed=" + std::to_string(seed));
    ms::ChaosProxyOptions po;
    po.listen_path = unique_path("cutretry_proxy.sock");
    po.upstream_path = sock;
    po.seed = seed;
    po.cut_after_min = 100;  // several frames in, then sever
    po.cut_after_max = 400;
    ms::ChaosProxy proxy(po);
    proxy.Start();

    ms::ServerClient c =
        ms::ServerClient::connect_uds(po.listen_path, retry_options());
    const std::string name = "chaos-exact-" + std::to_string(seed);
    const auto opened = c.open(name);
    constexpr std::uint64_t kN = 40;
    for (std::uint64_t i = 0; i < kN; ++i) {
      c.increment(opened.id, 1);  // survives any number of proxy cuts
    }
    EXPECT_EQ(c.check(opened.id, kN), kN);  // exactly once, every one
    EXPECT_GE(proxy.connections_cut(), 1u) << "chaos schedule never fired";
    proxy.Stop();

    ms::ServerClient direct = ms::ServerClient::connect_uds(sock);
    EXPECT_EQ(direct.resolve(name).value, kN);
  }
  server.Stop();
  ::unlink(state.c_str());
  ::unlink((state + ".journal").c_str());
}

}  // namespace

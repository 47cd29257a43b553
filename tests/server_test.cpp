// server_test.cpp — the counter shard server end to end: protocol
// round-trips, parked connections, wire-protocol robustness (truncated
// / corrupt / oversized frames), disconnect-while-parked registration
// cleanup, poison propagation as typed errors, the overload policies,
// how the event loop waits, and a forked multi-process integration
// test.

#include <gtest/gtest.h>

#include <libgen.h>
#include <poll.h>
#include <sched.h>
#include <sys/mman.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <sys/types.h>
#include <sys/un.h>
#include <sys/wait.h>
#include <unistd.h>

#include <csignal>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <iterator>
#include <limits>
#include <map>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "monotonic/core/counter_error.hpp"
#include "monotonic/server/client.hpp"
#include "monotonic/server/protocol.hpp"
#include "monotonic/server/server.hpp"

namespace ms = monotonic::server;
using monotonic::CounterError;
using monotonic::CounterOverloadedError;
using monotonic::CounterPoisonedError;
using monotonic::OverloadPolicy;

namespace {

std::string unique_sock_path() {
  static int seq = 0;
  return "/tmp/mc_server_test_" + std::to_string(::getpid()) + "_" +
         std::to_string(seq++) + ".sock";
}

/// Starts a server on a fresh UDS path with the given options.
class ServerFixture {
 public:
  explicit ServerFixture(ms::ServerOptions opts = {}) {
    opts.uds_path = unique_sock_path();
    path_ = opts.uds_path;
    server_.emplace(std::move(opts));
    server_->Start();
  }
  ~ServerFixture() { server_->Stop(); }

  ms::ServerClient connect() { return ms::ServerClient::connect_uds(path_); }
  ms::CounterServer& server() { return *server_; }
  const std::string& path() const { return path_; }

 private:
  std::string path_;
  std::optional<ms::CounterServer> server_;
};

/// str16 message body of an error response.
std::string body_message(const ms::ServerClient::Response& resp) {
  ms::Reader r(resp.body);
  std::string_view msg;
  return r.get_str16(msg) ? std::string(msg) : std::string();
}

/// Threads of this process: the entries of /proc/self/task.
std::size_t thread_count() {
  return static_cast<std::size_t>(std::distance(
      std::filesystem::directory_iterator("/proc/self/task"),
      std::filesystem::directory_iterator()));
}

/// Resident set size of this process.
std::size_t rss_bytes() {
  unsigned long pages = 0, resident = 0;
  if (std::FILE* f = std::fopen("/proc/self/statm", "r")) {
    if (std::fscanf(f, "%lu %lu", &pages, &resident) != 2) resident = 0;
    std::fclose(f);
  }
  return resident * static_cast<std::size_t>(::sysconf(_SC_PAGESIZE));
}

/// Path of a binary built next to this test binary.
std::string sibling_binary(const char* name) {
  char self[4096];
  const ssize_t n = ::readlink("/proc/self/exe", self, sizeof(self) - 1);
  if (n <= 0) return std::string("./") + name;
  self[n] = '\0';
  return std::string(::dirname(self)) + "/" + name;
}

/// VmRSS of process `pid`, from /proc/<pid>/status.
std::size_t vm_rss_bytes(pid_t pid) {
  std::size_t kb = 0;
  const std::string path = "/proc/" + std::to_string(pid) + "/status";
  if (std::FILE* f = std::fopen(path.c_str(), "r")) {
    char line[256];
    while (std::fgets(line, sizeof(line), f) != nullptr) {
      if (std::sscanf(line, "VmRSS: %zu kB", &kb) == 1) break;
    }
    std::fclose(f);
  }
  return kb * 1024;
}

/// Sends one `op` (kOpen with the default spec, or kResolve) per name
/// over `c`, pipelined in windows of 1024 frames, and returns the id
/// each kOk reply carries (0 for any other reply), in name order.
std::vector<std::uint64_t> pipelined_ids(
    ms::ServerClient& c, ms::Op op, const std::vector<std::string>& names) {
  constexpr std::size_t kWindow = 1024;
  // Clear of the req_ids the client numbers its own requests with.
  constexpr std::uint64_t kBase = std::uint64_t{1} << 40;
  std::vector<std::uint64_t> ids(names.size(), 0);
  for (std::size_t lo = 0; lo < names.size(); lo += kWindow) {
    const std::size_t hi = std::min(names.size(), lo + kWindow);
    std::string frames;
    for (std::size_t i = lo; i < hi; ++i) {
      std::string body;
      ms::put_str16(body, names[i]);
      if (op == ms::Op::kOpen) ms::put_str16(body, "");
      frames += ms::make_frame(static_cast<std::uint8_t>(op), kBase + i, body);
    }
    c.send_raw(frames);
    for (std::size_t i = lo; i < hi; ++i) {
      const auto resp = c.read_response();
      ms::Reader r(resp.body);
      std::uint64_t id = 0;
      if (resp.status == ms::Status::kOk && resp.req_id >= kBase + lo &&
          resp.req_id < kBase + hi && r.get_u64(id)) {
        ids[resp.req_id - kBase] = id;
      }
    }
  }
  return ids;
}

std::vector<std::string> numbered_names(const char* prefix, std::size_t n) {
  std::vector<std::string> names;
  names.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    names.push_back(prefix + std::to_string(i));
  }
  return names;
}

// Sanitizer runtimes pad and quarantine allocations, so RSS growth
// there says nothing about the server's own footprint.
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
constexpr bool kSanitized = true;
#else
constexpr bool kSanitized = false;
#endif

/// Polls `pred` until true or ~2s elapse.
template <typename Pred>
bool eventually(Pred pred) {
  for (int i = 0; i < 400; ++i) {
    if (pred()) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  return pred();
}

/// Forks and execs server_recovery_child, serving `path` in memory.
/// `prepare` runs in the forked child before the exec, so what it sets
/// (CPU affinity, rlimits) holds for the server.  The child is exec'd,
/// not just forked: a fresh process holds only the server.
template <typename Prepare>
pid_t spawn_server(const std::string& path, Prepare prepare) {
  const std::string bin = sibling_binary("server_recovery_child");
  const pid_t pid = ::fork();
  if (pid == 0) {
    if (prepare()) {
      ::execl(bin.c_str(), bin.c_str(), path.c_str(), "",
              static_cast<char*>(nullptr));
    }
    ::_exit(127);
  }
  return pid;
}

/// SIGKILLs and reaps a child process on scope exit, so a failed
/// assertion leaves no server behind; pid -1 = already reaped.
struct ChildGuard {
  pid_t pid;
  ~ChildGuard() {
    if (pid > 0) {
      ::kill(pid, SIGKILL);
      ::waitpid(pid, nullptr, 0);
    }
  }
};

/// User + system CPU time of this process.
std::chrono::microseconds self_cpu_time() {
  rusage ru{};
  ::getrusage(RUSAGE_SELF, &ru);
  const auto us = [](const timeval& tv) {
    return std::chrono::seconds(tv.tv_sec) +
           std::chrono::microseconds(tv.tv_usec);
  };
  return us(ru.ru_utime) + us(ru.ru_stime);
}

/// User + system CPU time of process `pid`, from /proc/<pid>/stat;
/// -1 ms when it cannot be read.
std::chrono::milliseconds cpu_time(pid_t pid) {
  char buf[1024] = {};
  const std::string path = "/proc/" + std::to_string(pid) + "/stat";
  if (std::FILE* f = std::fopen(path.c_str(), "r")) {
    [[maybe_unused]] std::size_t n = std::fread(buf, 1, sizeof(buf) - 1, f);
    std::fclose(f);
  }
  // Fields 14 and 15, counted from after the parenthesized command.
  const char* rest = std::strrchr(buf, ')');
  unsigned long utime = 0, stime = 0;
  if (rest == nullptr ||
      std::sscanf(rest + 1,
                  " %*c %*d %*d %*d %*d %*d %*u %*u %*u %*u %*u %lu %lu",
                  &utime, &stime) != 2) {
    return std::chrono::milliseconds(-1);
  }
  return std::chrono::milliseconds((utime + stime) * 1000 /
                                   ::sysconf(_SC_CLK_TCK));
}

/// A bare UDS connection with no Hello, so it can wait in the
/// listener's backlog without blocking the caller; -1 on failure.
int raw_connect(const std::string& path) {
  const int fd = ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
  if (fd >= 0 &&
      ::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return -1;
  }
  return fd;
}

void send_open(int fd, const std::string& name) {
  std::string body;
  ms::put_str16(body, name);
  ms::put_str16(body, "");
  const std::string frame =
      ms::make_frame(static_cast<std::uint8_t>(ms::Op::kOpen), 1, body);
  ASSERT_EQ(::send(fd, frame.data(), frame.size(), MSG_NOSIGNAL),
            static_cast<ssize_t>(frame.size()));
}

/// True when a kOk frame arrives on `fd` within `timeout`.
bool answered_ok(int fd, std::chrono::milliseconds timeout) {
  pollfd pfd{fd, POLLIN, 0};
  if (::poll(&pfd, 1, static_cast<int>(timeout.count())) != 1) return false;
  char reply[64];
  const ssize_t n = ::recv(fd, reply, sizeof(reply), 0);
  // u32 length, then the status byte.
  return n > 4 && static_cast<ms::Status>(reply[4]) == ms::Status::kOk;
}

TEST(ServerBasics, OpenIncrementCheckRoundTrip) {
  ServerFixture fx;
  ms::ServerClient c = fx.connect();
  const auto opened = c.open("jobs/done");
  EXPECT_GT(opened.id, 0u);
  EXPECT_EQ(opened.value, 0u);
  c.increment(opened.id, 5);
  EXPECT_EQ(c.check(opened.id, 5), 5u);  // already reached: fast path
  const auto st = c.stats(opened.id);
  EXPECT_EQ(st.at("value"), 5u);
}

TEST(ServerBasics, ReopenReturnsSameId) {
  ServerFixture fx;
  ms::ServerClient c = fx.connect();
  const auto a = c.open("same/name");
  c.increment(a.id, 3);
  const auto b = c.open("same/name", "list");  // spec ignored on reopen
  EXPECT_EQ(a.id, b.id);
  EXPECT_EQ(b.value, 3u);
}

TEST(ServerBasics, ExplicitSpecAndBadSpec) {
  ServerFixture fx;
  ms::ServerClient c = fx.connect();
  const auto opened = c.open("striped", "sharded:4+hybrid");
  c.increment(opened.id, 2);
  EXPECT_EQ(c.check(opened.id, 2), 2u);
  EXPECT_THROW(c.open("bad", "no-such-kind"), std::invalid_argument);
  // The connection survives the bad spec — it was a kBadRequest, not a
  // protocol error.
  EXPECT_EQ(c.check(opened.id, 1), 2u);

  // A client's spec starts no server thread: its executor token is
  // ignored.  Only N = 2 is tried; a large N would start that many.
  const std::size_t threads = thread_count();
  const auto pooled = c.open("pooled", "hybrid,executor=pool:2");
  const std::uint64_t rid = c.on_reach_async(pooled.id, 1);
  c.increment(pooled.id, 1);
  EXPECT_EQ(c.await_reach(rid), 1u);
  EXPECT_EQ(thread_count(), threads);

  // Nor does it map a shared-memory segment: shared: is refused.
  ::shm_unlink("/mc_server_refused");
  std::string body;
  ms::put_str16(body, "refused");
  ms::put_str16(body, "shared:/mc_server_refused");
  EXPECT_EQ(c.request(ms::Op::kOpen, body).status, ms::Status::kBadRequest);
  EXPECT_FALSE(std::filesystem::exists("/dev/shm/mc_server_refused"));
}

TEST(ServerBasics, UnknownCounterId) {
  ServerFixture fx;
  ms::ServerClient c = fx.connect();
  EXPECT_THROW(c.check(999, 1), std::invalid_argument);
  EXPECT_THROW(c.increment(999, 1), std::invalid_argument);
}

TEST(ServerBasics, ManyCountersByName) {
  ServerFixture fx;
  ms::ServerClient c = fx.connect();
  std::vector<std::uint64_t> ids;
  for (int i = 0; i < 200; ++i) {
    ids.push_back(c.open("counter/" + std::to_string(i)).id);
  }
  for (std::size_t i = 0; i < ids.size(); ++i) {
    c.increment(ids[i], i + 1);
  }
  for (std::size_t i = 0; i < ids.size(); ++i) {
    EXPECT_EQ(c.check(ids[i], i + 1), i + 1);
  }
  const auto st = c.stats();
  EXPECT_EQ(st.at("counters_open"), 200u);
}

TEST(ServerBasics, OutOfRangeIdsAreUnknown) {
  ServerFixture fx;
  ms::ServerClient c = fx.connect();
  // 200k names cross many index doublings and table pages; reopening
  // and resolving each must find the id its Open returned.
  constexpr std::size_t kCounters = 200'000;
  const std::vector<std::string> names = numbered_names("n", kCounters);
  const std::vector<std::uint64_t> ids =
      pipelined_ids(c, ms::Op::kOpen, names);
  EXPECT_EQ(std::count(ids.begin(), ids.end(), 0u), 0);
  EXPECT_EQ(pipelined_ids(c, ms::Op::kOpen, names), ids);
  EXPECT_EQ(pipelined_ids(c, ms::Op::kResolve, names), ids);
  EXPECT_EQ(c.stats().at("counters_open"), kCounters);

  const std::uint64_t live = ids.back();
  c.increment(live, 7);
  const std::uint64_t size = kCounters;
  for (const std::uint64_t id :
       {std::uint64_t{0}, size + 1, (std::uint64_t{1} << 32) + live,
        std::numeric_limits<std::uint64_t>::max()}) {
    SCOPED_TRACE("id " + std::to_string(id));
    auto status = [&](ms::Op op) {
      std::string body;
      ms::put_u64(body, id);
      if (op == ms::Op::kPoison) ms::put_str16(body, "must not land");
      if (op != ms::Op::kPoison && op != ms::Op::kStats) {
        ms::put_u64(body, 1);  // amount or level
      }
      if (op == ms::Op::kIncrement) ms::put_u8(body, 0);  // acked
      if (op == ms::Op::kCheckFor) ms::put_u64(body, 1'000'000);  // timeout
      return c.request(op, body).status;
    };
    for (const ms::Op op : {ms::Op::kIncrement, ms::Op::kCheck,
                            ms::Op::kCheckFor, ms::Op::kPoison}) {
      EXPECT_EQ(status(op), ms::Status::kUnknownCounter)
          << "op " << static_cast<int>(op);
    }
    // Stats on id 0 is the server-wide handle, not a counter.
    if (id != 0) {
      EXPECT_EQ(status(ms::Op::kStats), ms::Status::kUnknownCounter);
    }
  }
  // Nothing aliased a live counter: no increment landed, no poison.
  EXPECT_EQ(c.check(live, 7), 7u);
  EXPECT_EQ(c.check(ids.front(), 0), 0u);
  c.increment(live, 1);
  c.increment(ids.front(), 1);
  EXPECT_EQ(c.resolve(names.back()).value, 8u);
  EXPECT_EQ(c.resolve(names.front()).value, 1u);
}

TEST(ServerParking, BlockingCheckParksConnectionNotThread) {
  ServerFixture fx;
  ms::ServerClient waiter = fx.connect();
  ms::ServerClient inc = fx.connect();
  const auto opened = waiter.open("parked");
  const auto opened2 = inc.open("parked");
  ASSERT_EQ(opened.id, opened2.id);

  // Park the wait asynchronously, then verify the server sees it
  // parked (a registration, not a thread).
  const std::uint64_t rid = waiter.on_reach_async(opened.id, 10);
  ASSERT_TRUE(eventually(
      [&] { return fx.server().stats().parked_waits == 1; }));

  inc.increment(opened.id, 10);
  EXPECT_EQ(waiter.await_reach(rid), 10u);
  EXPECT_EQ(fx.server().stats().parked_waits, 0u);
}

TEST(ServerParking, ThousandsOfWaitsOnOneConnection) {
  ServerFixture fx;
  ms::ServerClient c = fx.connect();
  const auto opened = c.open("fanout");
  constexpr int kWaits = 2000;
  std::vector<std::uint64_t> rids;
  rids.reserve(kWaits);
  for (int i = 1; i <= kWaits; ++i) {
    rids.push_back(c.on_reach_async(opened.id, i));
  }
  c.increment(opened.id, kWaits);
  for (int i = 0; i < kWaits; ++i) {
    EXPECT_GE(c.await_reach(rids[i]), static_cast<std::uint64_t>(i + 1));
  }
  EXPECT_EQ(fx.server().stats().parked_waits, 0u);
}

TEST(ServerParking, CheckForTimesOut) {
  ServerFixture fx;
  ms::ServerClient c = fx.connect();
  const auto opened = c.open("timed");
  const auto t0 = std::chrono::steady_clock::now();
  EXPECT_FALSE(c.check_for(opened.id, 100, std::chrono::milliseconds(50)));
  const auto waited = std::chrono::steady_clock::now() - t0;
  EXPECT_GE(waited, std::chrono::milliseconds(45));
  std::uint64_t value = 0;
  c.increment(opened.id, 100);
  EXPECT_TRUE(
      c.check_for(opened.id, 100, std::chrono::seconds(5), &value));
  EXPECT_EQ(value, 100u);
}

TEST(ServerParking, SettledWaitsAreNotRetained) {
  if (kSanitized) GTEST_SKIP() << "RSS is not measurable under a sanitizer";
  ServerFixture fx;
  ms::ServerClient c = fx.connect();
  const auto opened = c.open("rewoken");
  // Every wait parks one level above the value and is woken by the
  // no-ack increment right behind it: one connection, many settles.
  std::uint64_t level = 0;
  auto park_and_wake = [&](int waits) {
    std::vector<std::uint64_t> rids;
    rids.reserve(waits);
    for (int i = 0; i < waits; ++i) {
      rids.push_back(c.on_reach_async(opened.id, ++level));
      c.increment_noack(opened.id, 1);
    }
    for (const std::uint64_t rid : rids) EXPECT_GE(c.await_reach(rid), 1u);
  };
  park_and_wake(1000);  // warm-up: buffers and allocator arenas
  const std::size_t before = rss_bytes();
  for (int round = 0; round < 100; ++round) park_and_wake(1000);
  const std::size_t after = rss_bytes();
  EXPECT_GE(c.stats(opened.id).at("async_completions"), 101'000u);
  EXPECT_EQ(fx.server().stats().parked_waits, 0u);
  // 100k settled registrations kept alive would be ~10 MB.
  EXPECT_LT(after > before ? after - before : 0, std::size_t{2} << 20);
}

TEST(ServerParking, WaitReachedByTeardownFlushIsSafe) {
  ServerFixture fx;
  ms::ServerClient c = fx.connect();
  const auto opened = c.open("batched-wait", "hybrid+batching,batch=100");
  c.on_reach_async(opened.id, 5);
  c.increment(opened.id, 5);  // buffered by the decorator: no fire yet
  EXPECT_EQ(fx.server().stats().parked_waits, 1u);
  // Destroying the server destroys the engine, whose batching layer
  // flushes the 5 and fires the parked wait inline.
}

TEST(ServerParking, IncrementReleasesItsOwnConnectionsWait) {
  ServerFixture fx;
  ms::ServerClient c = fx.connect();
  // Acked: the wait fires inside the increment's dispatch, and the
  // kReached and the ack both answer, in either order.
  const auto acked = c.open("self/acked");
  const std::uint64_t rid = c.on_reach_async(acked.id, 5);
  c.increment(acked.id, 5);
  EXPECT_EQ(c.await_reach(rid), 5u);
  EXPECT_EQ(fx.server().stats().parked_waits, 0u);

  // No-ack: five increments and a Check in one write, parsed in one
  // tick; the fifth increment fires the wait.
  const auto noack = c.open("self/noack");
  const std::uint64_t noack_rid = c.on_reach_async(noack.id, 5);
  std::string burst;
  for (int i = 0; i < 5; ++i) {
    std::string body;
    ms::put_u64(body, noack.id);
    ms::put_u64(body, 1);
    ms::put_u8(body, ms::kIncrementNoAck);
    burst += ms::make_frame(static_cast<std::uint8_t>(ms::Op::kIncrement),
                            /*req_id=*/0, body);
  }
  constexpr std::uint64_t kCheckReq = 1'000'000;
  std::string check;
  ms::put_u64(check, noack.id);
  ms::put_u64(check, 5);
  burst += ms::make_frame(static_cast<std::uint8_t>(ms::Op::kCheck), kCheckReq,
                          check);
  c.send_raw(burst);
  EXPECT_EQ(c.await_response(kCheckReq).status, ms::Status::kReached);
  EXPECT_EQ(c.await_reach(noack_rid), 5u);
  EXPECT_EQ(fx.server().stats().parked_waits, 0u);
}

TEST(ServerBatching, ReadYourWrites) {
  ServerFixture fx;
  ms::ServerClient c = fx.connect();
  const auto opened = c.open("batched");
  // Ten no-ack increments in ONE write, so they land in one event-loop
  // tick.  Each is applied as it is parsed.
  std::string burst;
  for (int i = 0; i < 10; ++i) {
    std::string body;
    ms::put_u64(body, opened.id);
    ms::put_u64(body, 1);
    ms::put_u8(body, ms::kIncrementNoAck);
    burst += ms::make_frame(static_cast<std::uint8_t>(ms::Op::kIncrement),
                            /*req_id=*/0, body);
  }
  c.send_raw(burst);
  // A read behind them sees all ten.
  EXPECT_EQ(c.stats(opened.id).at("value"), 10u);
  EXPECT_EQ(c.check(opened.id, 10), 10u);
}

TEST(ServerPoison, PropagatesTypedToParkedAndFutureWaiters) {
  ServerFixture fx;
  ms::ServerClient waiter = fx.connect();
  ms::ServerClient killer = fx.connect();
  const auto opened = waiter.open("doomed");
  killer.open("doomed");

  const std::uint64_t rid = waiter.on_reach_async(opened.id, 100);
  ASSERT_TRUE(eventually(
      [&] { return fx.server().stats().parked_waits == 1; }));

  killer.poison(opened.id, "producer exploded");
  try {
    waiter.await_reach(rid);
    FAIL() << "parked wait should have been poisoned";
  } catch (const CounterPoisonedError& e) {
    EXPECT_NE(std::string(e.what()).find("producer exploded"),
              std::string::npos);
  }
  // Future waits and acked increments get the typed error immediately.
  EXPECT_THROW(waiter.check(opened.id, 100), CounterPoisonedError);
  EXPECT_THROW(killer.increment(opened.id, 1), CounterPoisonedError);
  // Below the frozen value still succeeds (poison freezes, not zeroes).
  EXPECT_EQ(waiter.check(opened.id, 0), 0u);
}

// ---- deferred engines -----------------------------------------------
// A default-spec counter holds a plain value until an op needs its
// engine; each op that builds it must carry the value over exactly.

TEST(ServerDeferredEngine, ParkedCheckReleasedByAnotherConnection) {
  ServerFixture fx;
  ms::ServerClient waiter = fx.connect();
  ms::ServerClient inc = fx.connect();
  const auto opened = waiter.open("deferred/park");
  inc.open("deferred/park");
  inc.increment(opened.id, 5);
  const std::uint64_t rid = waiter.on_reach_async(opened.id, 8);
  ASSERT_TRUE(eventually(
      [&] { return fx.server().stats().parked_waits == 1; }));
  EXPECT_EQ(inc.resolve("deferred/park").value, 5u);
  inc.increment(opened.id, 3);
  EXPECT_EQ(waiter.await_reach(rid), 8u);
  EXPECT_EQ(inc.resolve("deferred/park").value, 8u);
  EXPECT_EQ(inc.stats(opened.id).at("value"), 8u);
}

TEST(ServerDeferredEngine, TimedOutCheckForKeepsTheValue) {
  ServerFixture fx;
  ms::ServerClient c = fx.connect();
  const auto opened = c.open("deferred/timed");
  c.increment(opened.id, 5);
  EXPECT_FALSE(c.check_for(opened.id, 9, std::chrono::milliseconds(20)));
  EXPECT_EQ(c.resolve("deferred/timed").value, 5u);
  EXPECT_EQ(c.check(opened.id, 0), 5u);
  c.increment(opened.id, 4);
  EXPECT_EQ(c.check(opened.id, 9), 9u);
}

TEST(ServerDeferredEngine, PoisonBelowParkedLevelFreezesTheValue) {
  ServerFixture fx;
  ms::ServerClient waiter = fx.connect();
  ms::ServerClient killer = fx.connect();
  const auto opened = waiter.open("deferred/poison");
  killer.increment(opened.id, 5);
  const std::uint64_t rid = waiter.on_reach_async(opened.id, 10);
  ASSERT_TRUE(eventually(
      [&] { return fx.server().stats().parked_waits == 1; }));
  killer.poison(opened.id, "stopped at five");
  EXPECT_THROW(waiter.await_reach(rid), CounterPoisonedError);
  EXPECT_THROW(killer.increment(opened.id, 1), CounterPoisonedError);
  EXPECT_EQ(waiter.check(opened.id, 5), 5u);
  EXPECT_EQ(waiter.resolve("deferred/poison").value, 5u);
  const auto st = waiter.stats(opened.id);
  EXPECT_EQ(st.at("value"), 5u);
  EXPECT_EQ(st.at("poisoned"), 1u);
}

TEST(ServerDeferredEngine, PerCounterStatsKeepsTheValue) {
  ServerFixture fx;
  ms::ServerClient c = fx.connect();
  const auto opened = c.open("deferred/stats");
  c.increment(opened.id, 5);
  c.increment(opened.id, 2);
  EXPECT_EQ(c.stats(opened.id).at("value"), 7u);
  c.increment(opened.id, 3);
  EXPECT_EQ(c.resolve("deferred/stats").value, 10u);
  EXPECT_EQ(c.stats(opened.id).at("value"), 10u);
}

TEST(ServerDeferredEngine, UnparseableDefaultSpecIsRejectedUpFront) {
  ms::ServerOptions opts;
  opts.default_spec = "no-such-kind";
  try {
    ms::CounterServer server(opts);
    FAIL() << "a default spec that does not parse must be refused";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("'no-such-kind'"),
              std::string::npos)
        << e.what();
  }
}

TEST(ServerDeferredEngine, SharedDefaultSpecIsRejectedUpFront) {
  ms::ServerOptions opts;
  opts.default_spec = "shared:/mc_server_test_default";
  try {
    ms::CounterServer server(opts);
    FAIL() << "a shared: default spec would alias every default-spec name";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("shared:/mc_server_test_default"),
              std::string::npos)
        << e.what();
  }
}

// ---- overload policies ---------------------------------------------

TEST(ServerOverload, ThrowPolicyAnswersOverloaded) {
  ms::ServerOptions opts;
  opts.max_parked_waits = 2;
  opts.overload_policy = OverloadPolicy::kThrow;
  ServerFixture fx(opts);
  ms::ServerClient c = fx.connect();
  const auto opened = c.open("bounded");
  c.on_reach_async(opened.id, 100);
  c.on_reach_async(opened.id, 100);
  ASSERT_TRUE(eventually(
      [&] { return fx.server().stats().parked_waits == 2; }));
  EXPECT_THROW(c.check(opened.id, 100), CounterOverloadedError);
  EXPECT_GE(fx.server().stats().overload_rejections, 1u);
  // Capacity frees when the parked waits fire; new waits are admitted.
  c.increment(opened.id, 100);
  EXPECT_EQ(c.check(opened.id, 100), 100u);
}

TEST(ServerOverload, BlockIncrementersBackpressuresConnection) {
  ms::ServerOptions opts;
  opts.max_parked_waits = 1;
  opts.overload_policy = OverloadPolicy::kBlockIncrementers;
  ServerFixture fx(opts);
  ms::ServerClient gated = fx.connect();
  ms::ServerClient inc = fx.connect();
  const auto opened = gated.open("gated");
  inc.open("gated");

  const std::uint64_t first = gated.on_reach_async(opened.id, 5);
  ASSERT_TRUE(eventually(
      [&] { return fx.server().stats().parked_waits == 1; }));
  // Second wait exceeds capacity: the connection gates — the request
  // is deferred, not rejected.
  const std::uint64_t second = gated.on_reach_async(opened.id, 7);
  ASSERT_TRUE(eventually(
      [&] { return fx.server().stats().gated_connections == 1; }));

  // The OTHER connection keeps flowing, releases the first wait, which
  // frees capacity, ungates the connection and admits the second.
  inc.increment(opened.id, 5);
  EXPECT_EQ(gated.await_reach(first), 5u);
  inc.increment(opened.id, 2);
  EXPECT_EQ(gated.await_reach(second), 7u);
  EXPECT_EQ(fx.server().stats().gated_connections, 0u);
}

TEST(ServerOverload, GatedTimedWaitStillTimesOut) {
  ms::ServerOptions opts;
  opts.max_parked_waits = 1;
  opts.overload_policy = OverloadPolicy::kBlockIncrementers;
  ServerFixture fx(opts);
  ms::ServerClient c = fx.connect();
  ms::ServerClient inc = fx.connect();
  const auto opened = c.open("gated-timed");
  inc.open("gated-timed");
  const std::uint64_t parked = c.on_reach_async(opened.id, 10);
  ASSERT_TRUE(eventually(
      [&] { return fx.server().stats().parked_waits == 1; }));
  // Capacity frees after 2 s at the latest, so a deferred wait that
  // ignores its deadline answers kReached then instead of hanging.
  std::atomic<bool> answered{false};
  std::thread releaser([&] {
    const auto give_up =
        std::chrono::steady_clock::now() + std::chrono::seconds(2);
    while (!answered.load() && std::chrono::steady_clock::now() < give_up) {
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    inc.increment(opened.id, 10);
  });
  const auto start = std::chrono::steady_clock::now();
  // Over capacity: the frame is deferred, but its deadline still holds.
  EXPECT_FALSE(c.check_for(opened.id, 10, std::chrono::milliseconds(50)));
  EXPECT_LT(std::chrono::steady_clock::now() - start,
            std::chrono::milliseconds(1000));
  answered.store(true);
  releaser.join();
  // The timed-out frame ungated the connection: it still flows.
  EXPECT_EQ(c.await_reach(parked), 10u);
  EXPECT_EQ(fx.server().stats().gated_connections, 0u);
}

TEST(ServerOverload, GatedWaitAdmittedInTheTickThatFreesCapacity) {
  ms::ServerOptions opts;
  opts.max_parked_waits = 1;
  opts.overload_policy = OverloadPolicy::kBlockIncrementers;
  ServerFixture fx(opts);
  ms::ServerClient gated = fx.connect();
  ms::ServerClient inc = fx.connect();
  const auto opened = gated.open("gated-tick");
  inc.open("gated-tick");
  gated.on_reach_async(opened.id, 5);
  ASSERT_TRUE(eventually(
      [&] { return fx.server().stats().parked_waits == 1; }));
  gated.on_reach_async(opened.id, 7);
  ASSERT_TRUE(eventually(
      [&] { return fx.server().stats().gated_connections == 1; }));

  // The fire that frees capacity runs in the tick's flush, after that
  // tick has retried the gated connections, and no further traffic
  // comes: the deferred wait must not sit until the idle wait ends.
  inc.increment(opened.id, 5);
  const auto give_up =
      std::chrono::steady_clock::now() + std::chrono::milliseconds(200);
  bool admitted = false;
  while (!admitted && std::chrono::steady_clock::now() < give_up) {
    const ms::ServerStats s = fx.server().stats();
    admitted = s.gated_connections == 0 && s.parked_waits == 1;
    if (!admitted) std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_TRUE(admitted);
}

TEST(ServerOverload, GatedConnectionDoesNotSpinTheLoop) {
  ms::ServerOptions opts;
  opts.max_parked_waits = 1;
  opts.overload_policy = OverloadPolicy::kBlockIncrementers;
  ServerFixture fx(opts);
  ms::ServerClient gated = fx.connect();
  ms::ServerClient inc = fx.connect();
  const auto opened = gated.open("gated-idle");
  inc.open("gated-idle");
  const std::uint64_t first = gated.on_reach_async(opened.id, 5);
  ASSERT_TRUE(eventually(
      [&] { return fx.server().stats().parked_waits == 1; }));
  const std::uint64_t second = gated.on_reach_async(opened.id, 7);
  ASSERT_TRUE(eventually(
      [&] { return fx.server().stats().gated_connections == 1; }));

  // Frames behind the gate stay unread in the socket, which stays
  // readable: the loop must not wake for it while the gate holds.
  constexpr std::uint64_t kBase = std::uint64_t{1} << 40;
  constexpr int kDeferred = 8;
  std::string frames;
  for (int k = 0; k < kDeferred; ++k) {
    std::string body;
    ms::put_u64(body, opened.id);
    ms::put_u64(body, 0);
    frames += ms::make_frame(static_cast<std::uint8_t>(ms::Op::kCheck),
                             kBase + k, body);
  }
  gated.send_raw(frames);
  const auto cpu_before = self_cpu_time();
  std::this_thread::sleep_for(std::chrono::milliseconds(300));
  EXPECT_LT(self_cpu_time() - cpu_before, std::chrono::milliseconds(50));

  // Capacity frees: the deferred wait parks, then the unread frames
  // are read and answered.
  inc.increment(opened.id, 5);
  EXPECT_EQ(gated.await_reach(first), 5u);
  for (int k = 0; k < kDeferred; ++k) {
    EXPECT_EQ(gated.await_response(kBase + k).status, ms::Status::kReached);
  }
  inc.increment(opened.id, 2);
  EXPECT_EQ(gated.await_reach(second), 7u);
}

// ---- wire-protocol robustness --------------------------------------

TEST(ServerRobustness, OversizedFrameClosesConnection) {
  ServerFixture fx;
  ms::ServerClient bad = fx.connect();
  ms::ServerClient good = fx.connect();
  const auto opened = good.open("survives");

  std::string evil;
  ms::put_u32(evil, 10 * 1024 * 1024);  // 10MB "payload"
  bad.send_raw(evil);
  // The server names the offense — offending size and the cap — in a
  // final kBadRequest (req_id 0: no frame header ever parsed) before
  // hanging up.
  const auto last = bad.read_response();
  EXPECT_EQ(last.status, ms::Status::kBadRequest);
  EXPECT_EQ(last.req_id, 0u);
  EXPECT_NE(body_message(last).find("10485760"), std::string::npos);
  EXPECT_NE(body_message(last).find("65536"), std::string::npos);
  EXPECT_THROW(bad.read_response(), std::runtime_error);  // then hung up

  // The server itself is fine and other connections are untouched.
  good.increment(opened.id, 1);
  EXPECT_EQ(good.check(opened.id, 1), 1u);
  EXPECT_GE(fx.server().stats().protocol_errors, 1u);
}

TEST(ServerRobustness, RuntFrameClosesConnection) {
  ServerFixture fx;
  ms::ServerClient bad = fx.connect();
  std::string evil;
  ms::put_u32(evil, 3);  // < opcode + req_id
  evil += "abc";
  bad.send_raw(evil);
  const auto last = bad.read_response();  // named kBadRequest first
  EXPECT_EQ(last.status, ms::Status::kBadRequest);
  EXPECT_THROW(bad.read_response(), std::runtime_error);
}

TEST(ServerRobustness, TruncatedBodyAnswersBadRequest) {
  ServerFixture fx;
  ms::ServerClient c = fx.connect();
  // Well-formed frame, but an Increment body with only 4 of the 17
  // required bytes.
  std::string body = "\x01\x02\x03\x04";
  c.send_frame(ms::Op::kIncrement, 42, body);
  const auto resp = c.read_response();
  EXPECT_EQ(resp.status, ms::Status::kBadRequest);
  EXPECT_EQ(resp.req_id, 42u);
  // Stream stays usable: body length was honest, only content was bad.
  const auto opened = c.open("after-bad-body");
  EXPECT_EQ(opened.value, 0u);
}

TEST(ServerRobustness, UnknownOpcodeAnswersBadRequest) {
  ServerFixture fx;
  ms::ServerClient c = fx.connect();
  c.send_frame(static_cast<ms::Op>(99), 7, "");
  const auto resp = c.read_response();
  EXPECT_EQ(resp.status, ms::Status::kBadRequest);
  EXPECT_EQ(resp.req_id, 7u);
}

TEST(ServerRobustness, OverflowingIncrementAnswersBadRequest) {
  ServerFixture fx;
  ms::ServerClient c = fx.connect();
  const auto opened = c.open("near-max");  // default spec: hybrid
  const std::uint64_t max = std::numeric_limits<std::uint64_t>::max() >> 1;
  c.increment(opened.id, 5);
  EXPECT_THROW(c.increment(opened.id, std::uint64_t{1} << 63),
               std::invalid_argument);
  // A no-ack pair in one write (one tick): the first fits, the second
  // would carry the value past the maximum and is dropped.
  std::string pair;
  for (const std::uint64_t amount : {max - 10, std::uint64_t{6}}) {
    std::string body;
    ms::put_u64(body, opened.id);
    ms::put_u64(body, amount);
    ms::put_u8(body, ms::kIncrementNoAck);
    pair += ms::make_frame(static_cast<std::uint8_t>(ms::Op::kIncrement),
                           /*req_id=*/0, body);
  }
  c.send_raw(pair);
  EXPECT_EQ(c.stats(opened.id).at("value"), max - 5);
  // The connection keeps working, and the counter fills exactly to max.
  c.increment(opened.id, 5);
  EXPECT_EQ(c.check(opened.id, max), max);
  EXPECT_THROW(c.increment(opened.id, 1), std::invalid_argument);
  EXPECT_EQ(c.stats(opened.id).at("value"), max);
}

TEST(ServerRobustness, BatchingSpecOverflowAnswersBadRequest) {
  ServerFixture fx;
  ms::ServerClient c = fx.connect();
  const auto opened = c.open("buffered", "hybrid+batching,batch=1000");
  const std::uint64_t max = std::numeric_limits<std::uint64_t>::max() >> 1;
  c.increment(opened.id, max - 10);  // reaches the batch: applied
  c.increment(opened.id, 6);         // buffered by the decorator
  // The buffered 6 counts: a second 6 would carry the value past max.
  EXPECT_THROW(c.increment(opened.id, 6), std::invalid_argument);
  // A parked wait makes the decorator flush its buffer; that flush must
  // fit, so the server stays up.
  EXPECT_FALSE(c.check_for(opened.id, max, std::chrono::milliseconds(20)));
  EXPECT_EQ(c.check(opened.id, max - 4), max - 4);
  c.increment(opened.id, 4);
  EXPECT_EQ(c.resolve("buffered").value, max);
  EXPECT_EQ(fx.server().stats().connections_open, 1u);
}

TEST(ServerRobustness, HalfFrameThenDisconnectLeaksNothing) {
  ServerFixture fx;
  {
    ms::ServerClient c = fx.connect();
    std::string half;
    ms::put_u32(half, 100);  // promises 100 bytes...
    half += "only a few";    // ...delivers ten, then disconnects
    c.send_raw(half);
  }
  ASSERT_TRUE(eventually(
      [&] { return fx.server().stats().connections_open == 0; }));
}

TEST(ServerRobustness, DisconnectWhileParkedFreesRegistration) {
  ServerFixture fx;
  ms::ServerClient keeper = fx.connect();
  const auto opened = keeper.open("abandoned");
  {
    ms::ServerClient doomed = fx.connect();
    doomed.open("abandoned");
    doomed.on_reach_async(opened.id, 1000);
    doomed.on_reach_async(opened.id, 2000);
    ASSERT_TRUE(eventually(
        [&] { return fx.server().stats().parked_waits == 2; }));
  }  // doomed disconnects with both waits parked

  // The death sweep must tombstone the registrations: parked_waits
  // drops without any increment ever reaching those levels —
  // observable through the wire Stats op, like the issue demands.
  ASSERT_TRUE(eventually([&] {
    return keeper.stats().at("parked_waits") == 0;
  }));

  // The engine's eventual fire against the tombstones is a no-op; the
  // server keeps serving.
  keeper.increment(opened.id, 2000);
  EXPECT_EQ(keeper.check(opened.id, 2000), 2000u);
  EXPECT_EQ(fx.server().stats().connections_open, 1u);
}

TEST(ServerRobustness, TcpListenerWorksToo) {
  ms::ServerOptions opts;
  opts.uds_path = unique_sock_path();
  opts.tcp_any_port = true;
  ms::CounterServer server(opts);
  server.Start();
  ASSERT_NE(server.tcp_port(), 0);
  {
    ms::ServerClient c = ms::ServerClient::connect_tcp(server.tcp_port());
    const auto opened = c.open("over-tcp");
    c.increment(opened.id, 4);
    EXPECT_EQ(c.check(opened.id, 4), 4u);
  }
  server.Stop();
}

TEST(ServerRobustness, FdExhaustionDoesNotSpinTheLoop) {
  const std::string path = unique_sock_path();
  const pid_t pid = spawn_server(path, [] {
    rlimit lim{};
    ::getrlimit(RLIMIT_NOFILE, &lim);
    lim.rlim_cur = std::min<rlim_t>(lim.rlim_max, 24);
    return ::setrlimit(RLIMIT_NOFILE, &lim) == 0;
  });
  ASSERT_GE(pid, 0);
  const ChildGuard child{pid};
  // Connect until the server runs out of descriptors: each connection
  // the server accepted answers its Open, and the first it cannot
  // accept waits in the listen backlog, its Open unread.
  std::vector<int> accepted;
  int waiting = -1;
  ASSERT_TRUE(eventually([&] {
    const int fd = raw_connect(path);
    if (fd >= 0) accepted.push_back(fd);
    return fd >= 0;
  })) << "server_recovery_child never listened on " << path;
  send_open(accepted.front(), "fd-0");
  ASSERT_TRUE(answered_ok(accepted.front(), std::chrono::seconds(5)));
  for (int i = 1; i < 64 && waiting < 0; ++i) {
    const int fd = raw_connect(path);
    ASSERT_GE(fd, 0);
    send_open(fd, "fd-" + std::to_string(i));
    if (answered_ok(fd, std::chrono::seconds(1))) {
      accepted.push_back(fd);
    } else {
      waiting = fd;
    }
  }
  ASSERT_GE(waiting, 0) << "the server never ran out of descriptors";
  ASSERT_GE(accepted.size(), 2u);
  const int more = raw_connect(path);  // a second one in the backlog

  // The listener stays readable; the loop must not wake for it.
  const auto before = cpu_time(pid);
  std::this_thread::sleep_for(std::chrono::milliseconds(300));
  const auto after = cpu_time(pid);
  ASSERT_GE(before.count(), 0);
  ASSERT_GE(after.count(), 0);
  EXPECT_LT(after - before, std::chrono::milliseconds(50));

  // Freed descriptors take the waiting connections.
  for (int k = 0; k < 2; ++k) {
    ::close(accepted.back());
    accepted.pop_back();
  }
  EXPECT_TRUE(answered_ok(waiting, std::chrono::seconds(2)));

  for (const int fd : accepted) ::close(fd);
  ::close(waiting);
  if (more >= 0) ::close(more);
}

// ---- the event loop's wait -----------------------------------------

TEST(ServerLoop, IdleLoopParks) {
  ServerFixture fx;
  ms::ServerClient c = fx.connect();
  const auto opened = c.open("burst");
  for (int i = 0; i < 2000; ++i) c.increment(opened.id, 1);
  const auto before = c.stats();
  const auto cpu_before = self_cpu_time();
  std::this_thread::sleep_for(std::chrono::milliseconds(300));
  EXPECT_LT(self_cpu_time() - cpu_before, std::chrono::milliseconds(50));
  const auto after = c.stats();
  EXPECT_GT(after.at("loop_parks"), before.at("loop_parks"));
  // One 50 us spin window after the burst, then a park; a few windows
  // of slack for a slow clock read at the window's end.
  EXPECT_LE(after.at("loop_spin_us") - before.at("loop_spin_us"), 4 * 50u);
}

TEST(ServerLoop, StartsOnlyTheLoopThread) {
  const std::size_t before = thread_count();
  ServerFixture fx;
  EXPECT_EQ(thread_count(), before + 1);
  // A parked wait builds an engine and completes on the loop thread.
  ms::ServerClient c = fx.connect();
  const auto opened = c.open("one-thread");
  const std::uint64_t rid = c.on_reach_async(opened.id, 1);
  c.increment(opened.id, 1);
  EXPECT_EQ(c.await_reach(rid), 1u);
  EXPECT_EQ(thread_count(), before + 1);
}

TEST(ServerLoop, SingleCpuNeverSpins) {
  cpu_set_t set;
  CPU_ZERO(&set);
  ASSERT_EQ(::sched_getaffinity(0, sizeof(set), &set), 0);
  int cpu = 0;
  while (!CPU_ISSET(cpu, &set)) ++cpu;
  const std::string path = unique_sock_path();
  const pid_t pid = spawn_server(path, [cpu] {
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpu, &one);
    return ::sched_setaffinity(0, sizeof(one), &one) == 0;
  });
  ASSERT_GE(pid, 0);
  ChildGuard child{pid};
  std::map<std::string, std::uint64_t> stats;
  std::optional<ms::ServerClient> c;
  const bool listening = eventually([&] {
    try {
      c.emplace(ms::ServerClient::connect_uds(path));
      return true;
    } catch (const std::exception&) {
      return false;
    }
  });
  if (listening) {
    const auto opened = c->open("one-cpu");
    for (int i = 0; i < 10'000; ++i) c->increment(opened.id, 1);
    stats = c->stats();
  }
  // SIGTERM pokes the eventfd, so the drain starts at once rather
  // than when the loop's 1 s wait times out.
  const auto drain_start = std::chrono::steady_clock::now();
  ::kill(pid, SIGTERM);
  int status = 0;
  ASSERT_EQ(::waitpid(pid, &status, 0), pid);
  child.pid = -1;
  const auto drain_time = std::chrono::steady_clock::now() - drain_start;
  ASSERT_TRUE(listening) << "server_recovery_child never listened on " << path;
  EXPECT_TRUE(WIFEXITED(status) && WEXITSTATUS(status) == 0);
  EXPECT_GE(stats.at("requests"), 10'000u);
  EXPECT_EQ(stats.at("loop_spin_us"), 0u);
  EXPECT_LT(drain_time, std::chrono::milliseconds(500));
}

// ---- footprint -----------------------------------------------------

TEST(ServerFootprint, DefaultSpecCountersStayLean) {
  if (kSanitized) GTEST_SKIP() << "RSS is not measurable under a sanitizer";
  ServerFixture fx;
  ms::ServerClient c = fx.connect();
  c.open("warm-up");
  constexpr std::size_t kCounters = 20'000;
  const std::size_t before = rss_bytes();
  for (std::size_t i = 0; i < kCounters; ++i) {
    c.open("lean/" + std::to_string(i));
  }
  const std::size_t after = rss_bytes();
  EXPECT_EQ(c.stats().at("counters_open"), kCounters + 1);
  // Client-side name bookkeeping is in the figure too.  A counter with
  // a 64-node wait pool costs ~17 KB.
  EXPECT_LT((after > before ? after - before : 0) / kCounters, 2048u);
}

TEST(ServerFootprint, UnwaitedCountersHoldNoEngine) {
  if (kSanitized) GTEST_SKIP() << "RSS is not measurable under a sanitizer";
  ServerFixture fx;
  ms::ServerClient c = fx.connect();
  c.open("warm-up");
  constexpr std::size_t kCounters = 20'000;
  const std::size_t before = rss_bytes();
  for (std::size_t i = 0; i < kCounters; ++i) {
    const std::string name = "unwaited/" + std::to_string(i);
    const auto opened = c.open(name);
    c.increment(opened.id, 1);
    ASSERT_EQ(c.resolve(name).value, 1u);
    ASSERT_EQ(c.check(opened.id, 0), 1u);
  }
  const std::size_t after = rss_bytes();
  EXPECT_EQ(c.stats().at("counters_open"), kCounters + 1);
  // Client-side name bookkeeping is in the figure too.  A counter that
  // builds its "hybrid" engine at Open costs ~1.2 KB.
  EXPECT_LT((after > before ? after - before : 0) / kCounters, 512u);
}

TEST(ServerFootprint, DenseTableUnder96BytesPerCounter) {
  if (kSanitized) GTEST_SKIP() << "RSS is not measurable under a sanitizer";
  // The server runs in its own process, so its VmRSS holds only the
  // server; the client's bookkeeping stays in this one.  The child is
  // exec'd, not just forked: a forked copy of this binary would carry
  // its free but resident heap, which absorbs the table's growth unseen.
  // An empty state file keeps the server in memory, like ServerOptions{}.
  const std::string path = unique_sock_path();
  const pid_t pid = spawn_server(path, [] { return true; });
  ASSERT_GE(pid, 0);
  constexpr std::size_t kCounters = 100'000;
  std::size_t before = 0, after = 0, opened = 0;
  std::optional<ms::ServerClient> c;
  const bool listening = eventually([&] {
    try {
      c.emplace(ms::ServerClient::connect_uds(path));
      return true;
    } catch (const std::exception&) {
      return false;
    }
  });
  if (listening) {
    c->open("warm-up");
    before = vm_rss_bytes(pid);
    // Named the way the rpc_spread benchmark names its counters.
    const std::vector<std::uint64_t> ids =
        pipelined_ids(*c, ms::Op::kOpen, numbered_names("c", kCounters));
    opened = static_cast<std::size_t>(
        std::count_if(ids.begin(), ids.end(), [](auto id) { return id != 0; }));
    after = vm_rss_bytes(pid);
  }
  ::kill(pid, SIGTERM);  // the child drains and exits 0
  int status = 0;
  ASSERT_EQ(::waitpid(pid, &status, 0), pid);
  ASSERT_TRUE(listening) << "server_recovery_child never listened on " << path;
  EXPECT_TRUE(WIFEXITED(status) && WEXITSTATUS(status) == 0);
  EXPECT_EQ(opened, kCounters);
  ASSERT_GT(before, 0u);
  const std::size_t per_counter =
      (after > before ? after - before : 0) / kCounters;
  std::printf("server VmRSS %zu -> %zu B: %zu B per counter\n", before, after,
              per_counter);
  EXPECT_LE(per_counter, 96u);
}

// ---- multi-process integration -------------------------------------

TEST(ServerMultiProcess, ForkedWritersOneBlockingReader) {
  constexpr int kWriters = 4;
  constexpr int kPerWriter = 500;
  const std::string path = unique_sock_path();

  // The writers fork before the server starts: a fork while the loop
  // thread runs copies any lock it holds at that instant (under ASan,
  // an allocator lock), and the child deadlocks on it.  Each writer
  // waits for `go` to close, which happens once the server listens.
  int go[2];
  ASSERT_EQ(::pipe(go), 0);
  std::vector<pid_t> pids;
  for (int w = 0; w < kWriters; ++w) {
    const pid_t pid = ::fork();
    ASSERT_GE(pid, 0);
    if (pid == 0) {
      // Child: separate process, own connection, acked increments.
      ::close(go[1]);
      char byte = 0;
      int rc = ::read(go[0], &byte, 1) == 0 ? 0 : 1;
      try {
        ms::ServerClient c = ms::ServerClient::connect_uds(path);
        const auto opened = c.open("multiproc/total");
        for (int i = 0; i < kPerWriter; ++i) c.increment(opened.id, 1);
      } catch (...) {
        rc = 1;
      }
      ::_exit(rc);
    }
    pids.push_back(pid);
  }
  ::close(go[0]);
  ms::ServerOptions opts;
  opts.uds_path = path;
  ms::CounterServer server(opts);
  server.Start();
  ::close(go[1]);

  // Parent: blocking wait for the full total, racing the children.
  ms::ServerClient c = ms::ServerClient::connect_uds(path);
  const auto opened = c.open("multiproc/total");
  EXPECT_EQ(c.check(opened.id, kWriters * kPerWriter),
            static_cast<std::uint64_t>(kWriters * kPerWriter));

  for (const pid_t pid : pids) {
    int status = 0;
    ASSERT_EQ(::waitpid(pid, &status, 0), pid);
    EXPECT_TRUE(WIFEXITED(status) && WEXITSTATUS(status) == 0)
        << "writer " << pid << " failed";
  }
  const auto st = c.stats(opened.id);
  EXPECT_EQ(st.at("value"), static_cast<std::uint64_t>(kWriters * kPerWriter));
}

}  // namespace

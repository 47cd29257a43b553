// client.hpp — blocking client for the counter shard server.
//
// One connection, one stream, pipelined: every request carries a
// req_id and the server may answer out of order (a parked Check
// answers whenever its level is reached, long after later requests).
// The client therefore reads responses into a stash keyed by req_id;
// a blocking call drains the socket until its own id surfaces, filing
// everything else for the callers that are still waiting.  That makes
// the async pattern natural:
//
//   ServerClient c = ServerClient::connect_uds("/tmp/mc.sock");
//   const auto opened = c.open("jobs/done");
//   std::uint64_t rid = c.on_reach_async(opened.id, 100);  // parks server-side
//   c.increment(opened.id, 100);
//   c.await_reach(rid);                                    // already fired
//
// Fault tolerance (docs/server.md, "Fault tolerance"):
//
//   * Deadlines.  connect_timeout bounds each connect;
//     io_timeout (0 = infinite) bounds how long any blocking await
//     tolerates SILENCE — a dead server surfaces as a typed
//     CounterTimeoutError instead of a read(2) that never returns.
//     The paper's monotonicity makes acting on a timeout safe: an
//     Increment that DID land only moved the value up, so re-sending
//     the same deduplicated Increment or re-arming the same Check can
//     neither double-count nor regress.
//
//   * Reconnect + replay (ClientOptions::retry.enabled).  Every
//     connection begins with a Hello binding the client's session UUID
//     and learning the server epoch.  When the connection dies
//     (crash = EOF/ECONNRESET; drain = a typed kShuttingDown first),
//     the client reconnects under capped exponential backoff with
//     jitter inside an overall deadline, re-Hellos, and — if the epoch
//     changed, i.e. the server restarted from its snapshot — re-opens
//     every name it ever resolved, remapping cached counter ids to the
//     new epoch's ids.  Then it replays every in-flight operation:
//     increments re-send with their original sequence number (the
//     server's per-session dedup window applies each at most once),
//     waits re-arm at the same level, and a CheckFor re-arms with the
//     time already waited deducted.  Callers see none of it.
//
//   * Typed opt-outs.  retry.transparent_reresolve = false surfaces a
//     restore as CounterEpochChangedError(old, new) instead of
//     remapping — for callers that index their own state by counter
//     id.  Without retry, a drain surfaces as CounterShutdownError
//     (orderly, back off) as distinct from a timeout or reset (crashy,
//     reconnect when ready) — the distinction that keeps a rolling
//     restart from becoming a retry storm.
//
// Wire errors surface typed, mirroring the engine taxonomy:
// kPoisoned → CounterPoisonedError, kOverloaded →
// CounterOverloadedError, kUnknownCounter / kBadRequest →
// std::invalid_argument, kShuttingDown → CounterShutdownError.
//
// Header-only and deliberately synchronous — the server parks
// connections, so one client thread with pipelining goes a long way;
// open a second connection when you need concurrent blocking waits
// from one process (or use on_reach_async and collect).
#pragma once

#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstring>
#include <fcntl.h>
#include <map>
#include <random>
#include <stdexcept>
#include <string>
#include <string_view>
#include <system_error>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#include "monotonic/core/counter_error.hpp"
#include "monotonic/server/protocol.hpp"

namespace monotonic::server {

/// Reconnect-and-replay policy.  Off by default: a plain client gets
/// deadlines but no transparency — connection loss surfaces as an
/// exception, like it always did.
struct RetryPolicy {
  bool enabled = false;
  /// First reconnect backoff; doubles per failed attempt (capped at
  /// backoff_max) with 50–100% jitter so a fleet of clients does not
  /// reconnect in lockstep.
  std::chrono::milliseconds backoff_initial{10};
  std::chrono::milliseconds backoff_max{1000};
  /// Total budget for one recovery episode (connect attempts +
  /// backoffs).  Exhausting it surfaces CounterTimeoutError.
  std::chrono::milliseconds overall_deadline{30000};
  /// After a server restore (epoch change), transparently re-open
  /// every known name and remap cached ids.  false = surface
  /// CounterEpochChangedError instead and let the caller re-open.
  bool transparent_reresolve = true;
};

struct ClientOptions {
  /// Per-connect deadline (also applies to each reconnect attempt).
  std::chrono::milliseconds connect_timeout{5000};
  /// Longest SILENCE any blocking await tolerates before raising
  /// CounterTimeoutError.  0 = infinite — the right default for a
  /// client that parks long Checks server-side.
  std::chrono::milliseconds io_timeout{0};
  RetryPolicy retry;
  /// Client session UUID for increment dedup; 0/0 = generate one.
  std::uint64_t session_hi = 0;
  std::uint64_t session_lo = 0;
};

class ServerClient {
 public:
  struct Response {
    Status status = Status::kOk;
    std::uint64_t req_id = 0;
    std::string body;
  };

  struct Opened {
    std::uint64_t id = 0;
    std::uint64_t value = 0;
  };

  static ServerClient connect_uds(const std::string& path,
                                  ClientOptions opts = {}) {
    ServerClient c(std::move(opts));
    c.endpoint_ = Endpoint::kUds;
    c.uds_path_ = path;
    c.fd_ = c.dial(c.opts_.connect_timeout);
    c.first_hello();
    return c;
  }

  static ServerClient connect_tcp(std::uint16_t port, ClientOptions opts = {}) {
    ServerClient c(std::move(opts));
    c.endpoint_ = Endpoint::kTcp;
    c.tcp_port_ = port;
    c.fd_ = c.dial(c.opts_.connect_timeout);
    c.first_hello();
    return c;
  }

  ServerClient(ServerClient&& o) noexcept
      : opts_(std::move(o.opts_)),
        endpoint_(o.endpoint_),
        uds_path_(std::move(o.uds_path_)),
        tcp_port_(o.tcp_port_),
        fd_(std::exchange(o.fd_, -1)),
        next_req_(o.next_req_),
        next_seq_(o.next_seq_),
        epoch_(o.epoch_),
        dedup_window_(o.dedup_window_),
        rng_(o.rng_),
        stash_(std::move(o.stash_)),
        outstanding_(std::move(o.outstanding_)),
        opens_(std::move(o.opens_)) {}

  ServerClient& operator=(ServerClient&& o) noexcept {
    if (this != &o) {
      close();
      opts_ = std::move(o.opts_);
      endpoint_ = o.endpoint_;
      uds_path_ = std::move(o.uds_path_);
      tcp_port_ = o.tcp_port_;
      fd_ = std::exchange(o.fd_, -1);
      next_req_ = o.next_req_;
      next_seq_ = o.next_seq_;
      epoch_ = o.epoch_;
      dedup_window_ = o.dedup_window_;
      rng_ = o.rng_;
      stash_ = std::move(o.stash_);
      outstanding_ = std::move(o.outstanding_);
      opens_ = std::move(o.opens_);
    }
    return *this;
  }
  ServerClient(const ServerClient&) = delete;
  ServerClient& operator=(const ServerClient&) = delete;
  ~ServerClient() { close(); }

  void close() {
    if (fd_ >= 0) {
      ::close(fd_);
      fd_ = -1;
    }
  }
  int fd() const noexcept { return fd_; }

  /// Server epoch learned from the last Hello — bumps when the server
  /// restarted and restored its name table.
  std::uint64_t epoch() const noexcept { return epoch_; }

  /// This client's session UUID (increment dedup scope).
  std::pair<std::uint64_t, std::uint64_t> session() const noexcept {
    return {opts_.session_hi, opts_.session_lo};
  }

  // ---- counter operations -----------------------------------------

  /// Opens (or reopens) a named logical counter.  Empty spec = the
  /// server default; the spec is ignored when the name already exists.
  /// The (name, spec) pair is remembered — it is what the reconnect
  /// path replays to remap this counter after a server restore.
  Opened open(std::string_view name, std::string_view spec = "") {
    Pending p;
    p.op = Op::kOpen;
    p.name = std::string(name);
    p.str = std::string(spec);
    const Response resp = tracked_request(std::move(p));
    raise_unless(resp, Status::kOk);
    const Opened opened = parse_opened(resp, "Open");
    remember_open(std::string(name), std::string(spec), opened.id);
    return opened;
  }

  /// Resolves an existing name WITHOUT creating it (kUnknownCounter →
  /// std::invalid_argument when absent).
  Opened resolve(std::string_view name) {
    Pending p;
    p.op = Op::kResolve;
    p.name = std::string(name);
    const Response resp = tracked_request(std::move(p));
    raise_unless(resp, Status::kOk);
    const Opened opened = parse_opened(resp, "Resolve");
    remember_open(std::string(name), "", opened.id);
    return opened;
  }

  /// Acked increment: waits for the server's kOk (or raises the typed
  /// error — incrementing a poisoned counter answers kPoisoned).
  /// Under retry the increment carries a session-scoped sequence
  /// number, so a replay after reconnect is applied at most once.
  void increment(std::uint64_t id, std::uint64_t amount = 1) {
    Pending p;
    p.op = Op::kIncrement;
    p.id = id;
    p.amount = amount;
    if (opts_.retry.enabled) p.seq = next_seq_++;
    const Response resp = tracked_request(std::move(p));
    raise_unless(resp, Status::kOk);
  }

  /// Fire-and-forget increment: no response, no confirmation, no
  /// replay — the open-loop bench's write side.  One lost on a crash
  /// stays lost; that is the contract of not asking for an ack.
  void increment_noack(std::uint64_t id, std::uint64_t amount = 1) {
    std::string body;
    put_u64(body, id);
    put_u64(body, amount);
    put_u8(body, kIncrementNoAck);
    try {
      send_frame(Op::kIncrement, next_req_++, body);
    } catch (const ConnectionLost&) {
      if (!opts_.retry.enabled) throw_lost();
      recover(/*graceful=*/false);  // replays acked work, not this
    }
  }

  /// Blocking wait: parks the CONNECTION server-side until `level` is
  /// reached.  Returns the server's value lower bound at fire time.
  std::uint64_t check(std::uint64_t id, std::uint64_t level) {
    Pending p;
    p.op = Op::kCheck;
    p.id = id;
    p.level = level;
    const Response resp = tracked_request(std::move(p));
    raise_unless(resp, Status::kReached);
    return read_value(resp);
  }

  /// Timed wait; true (and *value_out) iff reached before the timeout.
  /// Under retry the deadline is absolute: a reconnect re-arms the
  /// wait with the time already spent waiting deducted.
  bool check_for(std::uint64_t id, std::uint64_t level,
                 std::chrono::nanoseconds timeout,
                 std::uint64_t* value_out = nullptr) {
    Pending p;
    p.op = Op::kCheckFor;
    p.id = id;
    p.level = level;
    p.timed = true;
    p.deadline = std::chrono::steady_clock::now() +
                 (timeout.count() < 0 ? std::chrono::nanoseconds(0) : timeout);
    const Response resp = tracked_request(std::move(p));
    if (resp.status == Status::kTimedOut) return false;
    raise_unless(resp, Status::kReached);
    if (value_out != nullptr) *value_out = read_value(resp);
    return true;
  }

  /// Registers a wait without blocking; returns the req_id to pass to
  /// await_reach (or await_response) later.  The wait parks
  /// server-side immediately — thousands can ride one connection.
  std::uint64_t on_reach_async(std::uint64_t id, std::uint64_t level) {
    Pending p;
    p.op = Op::kOnReach;
    p.id = id;
    p.level = level;
    return tracked_send(std::move(p));
  }

  /// Blocks until the async wait `req_id` fires; returns the value.
  std::uint64_t await_reach(std::uint64_t req_id) {
    const Response resp = await_response(req_id);
    raise_unless(resp, Status::kReached);
    return read_value(resp);
  }

  void poison(std::uint64_t id, std::string_view reason) {
    Pending p;
    p.op = Op::kPoison;
    p.id = id;
    p.str = std::string(reason);
    const Response resp = tracked_request(std::move(p));
    raise_unless(resp, Status::kOk);
  }

  /// Stats pairs for one counter, or the server-wide gauges (id 0).
  std::map<std::string, std::uint64_t> stats(std::uint64_t id = 0) {
    Pending p;
    p.op = Op::kStats;
    p.id = id;
    const Response resp = tracked_request(std::move(p));
    raise_unless(resp, Status::kOk);
    Reader r(resp.body);
    std::uint32_t n = 0;
    if (!r.get_u32(n)) throw std::runtime_error("Stats: short response");
    std::map<std::string, std::uint64_t> out;
    for (std::uint32_t i = 0; i < n; ++i) {
      std::string_view key;
      std::uint64_t value = 0;
      if (!r.get_str16(key) || !r.get_u64(value)) {
        throw std::runtime_error("Stats: truncated pair");
      }
      out.emplace(std::string(key), value);
    }
    return out;
  }

  // ---- low-level surface (robustness tests drive these) -----------
  // No replay tracking down here: a raw frame lost to a reconnect is
  // the caller's problem, by design.

  /// Sends one well-formed frame.
  void send_frame(Op op, std::uint64_t req_id, std::string_view body) {
    send_raw(make_frame(static_cast<std::uint8_t>(op), req_id, body));
  }

  /// Sends arbitrary bytes — corrupt frames, truncated frames, half a
  /// length prefix.  The robustness tests live on this.
  void send_raw(std::string_view bytes) {
    std::size_t off = 0;
    while (off < bytes.size()) {
      // MSG_NOSIGNAL: a dead peer is an EPIPE error, not a SIGPIPE.
      const ssize_t n = ::send(fd_, bytes.data() + off, bytes.size() - off,
                               MSG_NOSIGNAL);
      if (n < 0) {
        if (errno == EINTR) continue;
        if (errno == EPIPE || errno == ECONNRESET) throw ConnectionLost{};
        throw_errno("send");
      }
      off += static_cast<std::size_t>(n);
    }
  }

  /// Sends a request and blocks for ITS response (stashing others).
  Response request(Op op, std::string_view body) {
    const std::uint64_t req_id = next_req_++;
    try {
      send_frame(op, req_id, body);
    } catch (const ConnectionLost&) {
      throw_lost();
    }
    return await_response(req_id);
  }

  /// Blocks until the response for `req_id` arrives.  Out-of-order
  /// responses (pipelined requests, parked waits) are stashed for
  /// their own await calls.  Under retry, connection loss here is
  /// where transparent recovery happens: reconnect, re-Hello, remap,
  /// replay — then keep awaiting.
  Response await_response(std::uint64_t req_id) {
    for (;;) {
      if (auto it = stash_.find(req_id); it != stash_.end()) {
        Response resp = std::move(it->second);
        stash_.erase(it);
        return resp;
      }
      Response resp;
      try {
        resp = read_frame();
      } catch (const ConnectionLost&) {
        if (!opts_.retry.enabled) throw_lost();
        recover(/*graceful=*/false);
        continue;
      }
      if (opts_.retry.enabled && resp.status == Status::kShuttingDown &&
          outstanding_.count(resp.req_id) != 0) {
        // Orderly drain: the server answered our parked wait (or
        // deferred frame) kShuttingDown and will close.  Keep the op
        // outstanding, wait out the drain, recover on a grace backoff
        // — this is the no-retry-storm path.
        recover(/*graceful=*/true);
        continue;
      }
      outstanding_.erase(resp.req_id);
      if (resp.req_id == req_id) return resp;
      stash_.emplace(resp.req_id, std::move(resp));
    }
  }

  /// Reads the next response frame off the wire, whatever its req_id.
  /// (Raw surface: no retry, no io_timeout grace — EOF throws.)
  Response read_response() {
    try {
      return read_frame();
    } catch (const ConnectionLost&) {
      throw std::runtime_error("server closed the connection");
    }
  }

 private:
  enum class Endpoint { kUds, kTcp };

  /// Internal connection-loss signal (EOF, ECONNRESET, EPIPE).  Typed
  /// separately from the public taxonomy so retry logic can catch
  /// exactly it and nothing else.
  struct ConnectionLost {};

  /// One replayable in-flight operation, stored body-less: the body is
  /// rebuilt at (re)send time so a replay can remap counter ids to a
  /// new epoch and deduct waited time from a CheckFor.
  struct Pending {
    Op op = Op::kStats;
    std::uint64_t req_id = 0;
    std::string name;  // kOpen / kResolve
    std::string str;   // spec (kOpen) or reason (kPoison)
    std::uint64_t id = 0;
    std::uint64_t amount = 0;
    std::uint64_t seq = 0;  // nonzero: dedup-tagged increment
    std::uint64_t level = 0;
    bool timed = false;
    std::chrono::steady_clock::time_point deadline{};  // kCheckFor
  };

  explicit ServerClient(ClientOptions opts) : opts_(std::move(opts)) {
    if ((opts_.session_hi | opts_.session_lo) == 0) {
      std::random_device rd;
      auto word = [&rd] {
        return (static_cast<std::uint64_t>(rd()) << 32) |
               static_cast<std::uint64_t>(rd());
      };
      opts_.session_hi = word();
      opts_.session_lo = word() | 1;  // never all-zero
    }
    rng_.seed(static_cast<std::uint32_t>(opts_.session_lo ^
                                         (opts_.session_hi >> 32)));
  }

  [[noreturn]] static void throw_errno(const char* what) {
    throw std::system_error(errno, std::generic_category(), what);
  }

  [[noreturn]] static void throw_lost() {
    throw std::runtime_error("server closed the connection");
  }

  // ---- dialing ----------------------------------------------------

  /// Connects to the remembered endpoint with a deadline: nonblocking
  /// connect + poll(POLLOUT), then back to blocking.  Timeout is the
  /// typed CounterTimeoutError, not a hang.
  int dial(std::chrono::milliseconds timeout) const {
    int fd = -1;
    sockaddr_storage ss{};
    socklen_t slen = 0;
    if (endpoint_ == Endpoint::kUds) {
      fd = ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
      if (fd < 0) throw_errno("socket(AF_UNIX)");
      auto* addr = reinterpret_cast<sockaddr_un*>(&ss);
      addr->sun_family = AF_UNIX;
      if (uds_path_.size() >= sizeof(addr->sun_path)) {
        ::close(fd);
        throw std::invalid_argument("uds path too long: " + uds_path_);
      }
      std::memcpy(addr->sun_path, uds_path_.c_str(), uds_path_.size() + 1);
      slen = sizeof(sockaddr_un);
    } else {
      fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
      if (fd < 0) throw_errno("socket(AF_INET)");
      auto* addr = reinterpret_cast<sockaddr_in*>(&ss);
      addr->sin_family = AF_INET;
      addr->sin_addr.s_addr = htonl(INADDR_LOOPBACK);
      addr->sin_port = htons(tcp_port_);
      slen = sizeof(sockaddr_in);
    }
    const int flags = ::fcntl(fd, F_GETFL, 0);
    ::fcntl(fd, F_SETFL, flags | O_NONBLOCK);
    int rc = ::connect(fd, reinterpret_cast<const sockaddr*>(&ss), slen);
    if (rc != 0 && errno == EINPROGRESS) {
      pollfd pfd{fd, POLLOUT, 0};
      const int ready =
          ::poll(&pfd, 1, static_cast<int>(std::max<long long>(
                              1, timeout.count())));
      if (ready <= 0) {
        ::close(fd);
        throw CounterTimeoutError("connect: no answer within " +
                                  std::to_string(timeout.count()) + "ms");
      }
      int err = 0;
      socklen_t errlen = sizeof(err);
      ::getsockopt(fd, SOL_SOCKET, SO_ERROR, &err, &errlen);
      rc = err == 0 ? 0 : -1;
      errno = err;
    }
    if (rc != 0) {
      const int err = errno;
      ::close(fd);
      throw std::system_error(err, std::generic_category(), "connect");
    }
    ::fcntl(fd, F_SETFL, flags);
    return fd;
  }

  /// hello() for the initial connect: the internal ConnectionLost
  /// signal must not escape the public constructors.
  void first_hello() {
    try {
      hello();
    } catch (const ConnectionLost&) {
      throw_lost();
    }
  }

  /// The connection preamble: bind the session, learn the epoch.  On a
  /// reconnect an epoch bump means the server restored from snapshot —
  /// every cached id is stale; re-open every known name and remap.
  void hello() {
    std::string body;
    put_u64(body, opts_.session_hi);
    put_u64(body, opts_.session_lo);
    const std::uint64_t req_id = next_req_++;
    send_frame(Op::kHello, req_id, body);
    const Response resp = await_raw(req_id);
    raise_unless(resp, Status::kOk);
    Reader r(resp.body);
    std::uint64_t new_epoch = 0;
    if (!r.get_u64(new_epoch) || !r.get_u64(dedup_window_)) {
      throw std::runtime_error("Hello: short response body");
    }
    const std::uint64_t old_epoch = epoch_;
    epoch_ = new_epoch;
    if (old_epoch != 0 && new_epoch != old_epoch) {
      if (!opts_.retry.transparent_reresolve) {
        throw CounterEpochChangedError(
            "server restarted: epoch " + std::to_string(old_epoch) + " → " +
                std::to_string(new_epoch) + "; cached counter ids are stale",
            old_epoch, new_epoch);
      }
      remap_ids();
    }
  }

  /// Epoch changed: re-open every name this client ever resolved (with
  /// its remembered spec, so a counter the restore could not revive is
  /// recreated) and rewrite cached + in-flight ids.
  void remap_ids() {
    std::unordered_map<std::uint64_t, std::uint64_t> remap;
    for (auto& [name, info] : opens_) {
      std::string body;
      put_str16(body, name);
      put_str16(body, info.spec);
      const std::uint64_t req_id = next_req_++;
      send_frame(Op::kOpen, req_id, body);
      const Response resp = await_raw(req_id);
      raise_unless(resp, Status::kOk);
      const Opened opened = parse_opened(resp, "reopen");
      remap[info.id] = opened.id;
      info.id = opened.id;
    }
    for (auto& [req_id, p] : outstanding_) {
      if (auto it = remap.find(p.id); it != remap.end()) p.id = it->second;
    }
  }

  /// Minimal await used during connection setup — same stash
  /// discipline, but ConnectionLost propagates to the recovery loop
  /// instead of recursing into recover().
  Response await_raw(std::uint64_t req_id) {
    for (;;) {
      if (auto it = stash_.find(req_id); it != stash_.end()) {
        Response resp = std::move(it->second);
        stash_.erase(it);
        return resp;
      }
      Response resp = read_frame();
      if (resp.req_id == req_id) return resp;
      stash_.emplace(resp.req_id, std::move(resp));
    }
  }

  // ---- retry core -------------------------------------------------

  std::uint64_t tracked_send(Pending p) {
    p.req_id = next_req_++;
    const std::uint64_t req_id = p.req_id;
    const Op op = p.op;
    const std::string body = build_body(p);
    if (opts_.retry.enabled) outstanding_.emplace(req_id, std::move(p));
    try {
      send_frame(op, req_id, body);
    } catch (const ConnectionLost&) {
      if (!opts_.retry.enabled) throw_lost();
      recover(/*graceful=*/false);  // replay includes the op just filed
    }
    return req_id;
  }

  Response tracked_request(Pending p) {
    return await_response(tracked_send(std::move(p)));
  }

  std::string build_body(const Pending& p) const {
    std::string body;
    switch (p.op) {
      case Op::kOpen:
        put_str16(body, p.name);
        put_str16(body, p.str);
        break;
      case Op::kResolve:
        put_str16(body, p.name);
        break;
      case Op::kIncrement:
        put_u64(body, p.id);
        put_u64(body, p.amount);
        put_u8(body, p.seq != 0 ? kIncrementHasSeq : 0);
        if (p.seq != 0) put_u64(body, p.seq);
        break;
      case Op::kCheck:
      case Op::kOnReach:
        put_u64(body, p.id);
        put_u64(body, p.level);
        break;
      case Op::kCheckFor: {
        put_u64(body, p.id);
        put_u64(body, p.level);
        const auto now = std::chrono::steady_clock::now();
        const auto left = std::chrono::duration_cast<std::chrono::nanoseconds>(
            p.deadline - now);
        put_u64(body, static_cast<std::uint64_t>(
                          left.count() < 0 ? 0 : left.count()));
        break;
      }
      case Op::kPoison:
        put_u64(body, p.id);
        put_str16(body, p.str);
        break;
      case Op::kStats:
        put_u64(body, p.id);
        break;
      case Op::kHello:
        break;  // never tracked
    }
    return body;
  }

  /// The recovery episode: reconnect under capped, jittered backoff
  /// within the overall deadline; re-Hello (remapping on an epoch
  /// bump); replay every outstanding operation under its ORIGINAL
  /// req_id and seq.  `graceful` = the loss followed a kShuttingDown,
  /// so start with a drain-grace backoff instead of retrying the
  /// instant the listener closed.
  void recover(bool graceful) {
    close();
    const auto deadline =
        std::chrono::steady_clock::now() +
        (opts_.retry.overall_deadline.count() > 0 ? opts_.retry.overall_deadline
                                                  : std::chrono::hours(24));
    auto backoff = opts_.retry.backoff_initial;
    if (backoff.count() <= 0) backoff = std::chrono::milliseconds(1);
    if (graceful) {
      std::this_thread::sleep_for(jittered(4 * backoff));
    }
    for (;;) {
      try {
        fd_ = dial(opts_.connect_timeout);
        hello();  // CounterEpochChangedError (opt-out mode) propagates
        replay_outstanding();
        return;
      } catch (const CounterEpochChangedError&) {
        throw;
      } catch (const ConnectionLost&) {
      } catch (const CounterTimeoutError&) {
      } catch (const std::system_error&) {
      }
      close();
      if (std::chrono::steady_clock::now() + backoff >= deadline) {
        throw CounterTimeoutError(
            "reconnect: server did not come back within the retry "
            "deadline (" +
            std::to_string(opts_.retry.overall_deadline.count()) + "ms)");
      }
      std::this_thread::sleep_for(jittered(backoff));
      backoff = std::min(backoff * 2, opts_.retry.backoff_max);
    }
  }

  void replay_outstanding() {
    if (outstanding_.empty()) return;
    // Replay in original submission order — req_ids are monotonic.
    std::vector<std::uint64_t> order;
    order.reserve(outstanding_.size());
    for (const auto& [req_id, p] : outstanding_) order.push_back(req_id);
    std::sort(order.begin(), order.end());
    for (const std::uint64_t req_id : order) {
      auto it = outstanding_.find(req_id);
      if (it == outstanding_.end()) continue;
      Pending& p = it->second;
      if (p.op == Op::kCheckFor &&
          p.deadline <= std::chrono::steady_clock::now()) {
        // The wait's clock ran out while we were reconnecting: settle
        // it locally, exactly as the server would have.
        Response timed_out;
        timed_out.status = Status::kTimedOut;
        timed_out.req_id = req_id;
        stash_.emplace(req_id, std::move(timed_out));
        outstanding_.erase(it);
        continue;
      }
      send_frame(p.op, req_id, build_body(p));  // ConnectionLost → recover's
    }                                           // caller loop retries
  }

  std::chrono::milliseconds jittered(std::chrono::milliseconds base) {
    // 50–100%: desynchronizes a fleet without ever under-waiting by
    // more than half a step.
    std::uniform_int_distribution<long long> half(base.count() / 2,
                                                  std::max<long long>(
                                                      1, base.count()));
    return std::chrono::milliseconds(half(rng_));
  }

  // ---- bookkeeping ------------------------------------------------

  struct OpenInfo {
    std::uint64_t id = 0;
    std::string spec;
  };

  void remember_open(std::string name, std::string spec, std::uint64_t id) {
    auto [it, inserted] = opens_.try_emplace(std::move(name));
    it->second.id = id;
    if (inserted || !spec.empty()) it->second.spec = std::move(spec);
  }

  static Opened parse_opened(const Response& resp, const char* what) {
    Reader r(resp.body);
    Opened opened;
    if (!r.get_u64(opened.id) || !r.get_u64(opened.value)) {
      throw std::runtime_error(std::string(what) + ": short response body");
    }
    return opened;
  }

  static std::uint64_t read_value(const Response& resp) {
    Reader r(resp.body);
    std::uint64_t value = 0;
    r.get_u64(value);
    return value;
  }

  static std::string body_message(const Response& resp) {
    Reader r(resp.body);
    std::string_view msg;
    if (r.get_str16(msg)) return std::string(msg);
    return std::string(to_string(resp.status));
  }

  /// Maps an unexpected wire status onto the engine's typed taxonomy.
  static void raise_unless(const Response& resp, Status want) {
    if (resp.status == want) return;
    switch (resp.status) {
      case Status::kPoisoned:
        throw CounterPoisonedError(body_message(resp));
      case Status::kOverloaded:
        throw CounterOverloadedError(body_message(resp));
      case Status::kUnknownCounter:
      case Status::kBadRequest:
        throw std::invalid_argument(body_message(resp));
      case Status::kShuttingDown:
        throw CounterShutdownError(
            "server is draining (orderly shutdown, not a crash): "
            "reconnect after the drain grace period");
      default:
        throw std::runtime_error("unexpected response status " +
                                 std::string(to_string(resp.status)));
    }
  }

  // ---- framing I/O ------------------------------------------------

  Response read_frame() {
    const auto deadline =
        opts_.io_timeout.count() > 0
            ? std::chrono::steady_clock::now() + opts_.io_timeout
            : std::chrono::steady_clock::time_point::max();
    std::uint8_t lenbuf[4];
    read_exact(lenbuf, 4, deadline);
    std::uint32_t len = 0;
    for (int i = 0; i < 4; ++i) {
      len |= static_cast<std::uint32_t>(lenbuf[i]) << (8 * i);
    }
    if (len < 9 || len > kMaxFramePayload) {
      throw std::runtime_error("response frame with bad length " +
                               std::to_string(len));
    }
    std::string payload(len, '\0');
    read_exact(payload.data(), len, deadline);
    Reader r(payload);
    std::uint8_t status = 0;
    Response resp;
    r.get_u8(status);
    r.get_u64(resp.req_id);
    resp.status = static_cast<Status>(status);
    resp.body.assign(payload, 9, std::string::npos);
    return resp;
  }

  /// Deadline-bounded blocking read: poll for readability up to the
  /// per-await silence budget, then read.  The deadline caps SILENCE,
  /// not total transfer — every arriving byte re-arms it in spirit
  /// (the budget is recomputed per frame, not per byte).
  void read_exact(void* dst, std::size_t n,
                  std::chrono::steady_clock::time_point deadline) {
    char* p = static_cast<char*>(dst);
    while (n > 0) {
      if (deadline != std::chrono::steady_clock::time_point::max()) {
        const auto now = std::chrono::steady_clock::now();
        if (now >= deadline) {
          throw CounterTimeoutError(
              "no response within io_timeout (" +
              std::to_string(opts_.io_timeout.count()) +
              "ms of silence) — server slow, hung, or gone");
        }
        pollfd pfd{fd_, POLLIN, 0};
        const auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
            deadline - now);
        const int ready = ::poll(
            &pfd, 1,
            static_cast<int>(std::clamp<long long>(left.count() + 1, 1,
                                                   60 * 1000)));
        if (ready == 0) continue;  // loop re-checks the deadline
        if (ready < 0) {
          if (errno == EINTR) continue;
          throw_errno("poll");
        }
      }
      const ssize_t got = ::read(fd_, p, n);
      if (got == 0) throw ConnectionLost{};
      if (got < 0) {
        if (errno == EINTR) continue;
        if (errno == ECONNRESET) throw ConnectionLost{};
        throw_errno("read");
      }
      p += got;
      n -= static_cast<std::size_t>(got);
    }
  }

  ClientOptions opts_;
  Endpoint endpoint_ = Endpoint::kUds;
  std::string uds_path_;
  std::uint16_t tcp_port_ = 0;
  int fd_ = -1;
  std::uint64_t next_req_ = 1;
  std::uint64_t next_seq_ = 1;
  std::uint64_t epoch_ = 0;
  std::uint64_t dedup_window_ = 0;
  std::minstd_rand rng_;
  std::unordered_map<std::uint64_t, Response> stash_;
  std::unordered_map<std::uint64_t, Pending> outstanding_;  ///< replay set
  std::unordered_map<std::string, OpenInfo> opens_;  ///< name → id+spec
};

}  // namespace monotonic::server

// rpc.cpp — the server workloads: rpc_spread, rpc_wake, rpc_durable.
//
// One generator process, one thread, at most four UDS connections to a
// CounterServer running in a child process (`pb serve`), so the
// client's cost is never billed to the server.  Open-loop legs send on
// a fixed schedule at rates written below as constants; each request's
// latency runs from its SCHEDULED send time to its reply, so a stall
// is charged to every request it delays (no coordinated omission).
//
// Legs of one run, in order:
//   3 rounds of:
//     setup     spawn a fresh child, Start, open every counter, arm
//               the parks (median of 3 = setup_s)
//     light     open loop at the light rate (light_p50_us)
//     heavy     open loop at the heavy rate (p50_us; rpc_wake also
//               wake_p50_us)
//     closed    fixed in-flight window per connection (sat_kops)
//     verify    Resolve + Check(c,0) on a seeded sample of counters
//               (rounds 1-2 before the next setup, round 3 after
//               the traced legs)
//   [traced]    --trace 1 only: one more heavy leg with spans on, then
//               (rpc_spread / rpc_durable) a probe leg: parked Checks
//               on 64 counters released by increments at kProbeRate,
//               for the parked-wake layers; every park is answered and
//               retired before the leg ends
//   restart     SIGKILL, respawn, first answered Resolve; checks every
//               acked increment survived (rpc_durable, x3: restore_s)
//               or that the names are gone (in-memory, once)
#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <spawn.h>
#include <sys/prctl.h>
#include <sys/socket.h>
#include <sys/stat.h>
#include <sys/un.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "monotonic/server/protocol.hpp"
#include "monotonic/server/server.hpp"
#include "workloads.hpp"

namespace pb {
namespace {

namespace ms = monotonic::server;

// ---- workload definitions -------------------------------------------
//
// Offered rates are constants, fixed once from each workload's median
// sat_kops on the reference host (4 vCPU, see README.md): light ~10%,
// heavy ~25-45% of it, below the rates at which runs on that host
// overloaded or turned bimodal.  They are never derived from a measurement at run time.

struct RpcSpec {
  const char* name;
  std::uint32_t counters;
  bool durable;
  int park_depth;       ///< parked Checks per counter (0 = no parks)
  double light_rate;    ///< ops/s, whole generator
  double heavy_rate;    ///< ops/s
  std::size_t window;   ///< closed-loop in-flight requests per connection
};

constexpr int kConns = 4;
constexpr double kProbeRate = 10000;         // increments/s in the probe leg
constexpr std::uint32_t kProbeCounters = 64;
constexpr std::uint32_t kVerifySample = 1000;
constexpr int kRestartsDurable = 3;

constexpr RpcSpec kSpecs[] = {
    {"rpc_spread", 100'000, false, 0, 30'000, 150'000, 16},
    {"rpc_wake", 256, false, 16, 14'000, 40'000, 32},
    {"rpc_durable", 100'000, true, 0, 3'700, 18'000, 16},
};

const RpcSpec* find_spec(const std::string& name) {
  for (const RpcSpec& s : kSpecs) {
    if (name == s.name) return &s;
  }
  return nullptr;
}

// rpc_wake splits its connections: 0-1 hold the parked Checks, 2-3
// send the increments (counter c always on 2 + c%2, so the L-th
// increment of c is the one that releases level L).
bool is_wake(const RpcSpec& w) { return w.park_depth > 0; }

// ---- op stream --------------------------------------------------------

enum : std::uint8_t { kInc = 0, kCheck0 = 1 };

struct Op {
  ns_t sched;             ///< offset from leg start (0 in closed legs)
  std::uint32_t counter;  ///< counter index
  std::uint8_t conn;
  std::uint8_t kind;
};

/// Leg ids double as stream tags and as the leg byte of req_ids; round
/// r of a leg kind uses id kind + r.
enum Leg : int { kLegLight = 10, kLegHeavy = 20, kLegTraced = 30,
                 kLegClosed = 40, kLegProbe = 50 };

/// Each leg kind runs in kRounds chunks interleaved through the run
/// (light, heavy, closed, light, ...), so every metric samples the
/// host's state across the whole run rather than one stretch of it.
constexpr int kRounds = 3;

Op draw_op(const RpcSpec& w, Rng& rng, int conn) {
  Op op{};
  op.conn = static_cast<std::uint8_t>(conn);
  if (is_wake(w)) {
    // Writer connection conn owns the counters with c % 2 == conn - 2.
    op.counter = static_cast<std::uint32_t>(
        2 * rng.below(w.counters / 2) + static_cast<std::uint32_t>(conn - 2));
    op.kind = kInc;
  } else {
    op.counter = static_cast<std::uint32_t>(rng.below(w.counters));
    op.kind = rng.below(100) < 80 ? kInc : kCheck0;
  }
  return op;
}

/// Evenly spaced arrivals at `rate` for `seconds`; keys and the 80/20
/// mix come from the seed.
std::vector<Op> open_stream(const RpcSpec& w, std::uint64_t seed, int leg,
                            double rate, double seconds) {
  Rng rng(mix_seed(seed, static_cast<std::uint64_t>(leg)));
  const std::size_t n = static_cast<std::size_t>(rate * seconds);
  std::vector<Op> ops(n);
  for (std::size_t i = 0; i < n; ++i) {
    const int conn = is_wake(w) ? 2 + static_cast<int>(rng.below(2))
                                : static_cast<int>(i % kConns);
    ops[i] = draw_op(w, rng, conn);
    ops[i].sched = static_cast<ns_t>(static_cast<double>(i) * 1e9 / rate);
  }
  return ops;
}

/// How one run's --seconds split over one round of each leg.  The
/// traced run's probe leg lasts as long as one round's closed leg.
struct LegPlan {
  double light, heavy, closed;
};
LegPlan plan(double s) {
  const double r = s / kRounds;
  return LegPlan{r * 0.30, r * 0.45, r * 0.25};
}

Rng closed_rng(std::uint64_t seed, int leg, int conn) {
  return Rng(mix_seed(seed, static_cast<std::uint64_t>(leg * 8 + conn)));
}

std::vector<int> load_conns(const RpcSpec& w) {
  return is_wake(w) ? std::vector<int>{2, 3} : std::vector<int>{0, 1, 2, 3};
}

std::string counter_name(std::uint32_t i) {
  std::string name = "c";
  name += std::to_string(i);
  return name;
}

std::string op_body(const Op& op, std::uint64_t id) {
  std::string body;
  ms::put_u64(body, id);
  if (op.kind == kInc) {
    ms::put_u64(body, 1);
    ms::put_u8(body, 0);  // acked
  } else {
    ms::put_u64(body, 0);  // level 0: answered from the value plane
  }
  return body;
}

ms::Op wire_op(const Op& op) {
  return op.kind == kInc ? ms::Op::kIncrement : ms::Op::kCheck;
}

// ---- req_id layout: class | leg | index -------------------------------

enum : std::uint64_t { kClsOpen = 1, kClsLoad = 2, kClsPark = 3,
                       kClsStats = 4, kClsResolve = 5, kClsVerifyCheck = 6 };

std::uint64_t req_id(std::uint64_t cls, std::uint64_t leg, std::uint64_t idx) {
  return (cls << 56) | (leg << 48) | idx;
}
std::uint64_t id_cls(std::uint64_t id) { return id >> 56; }
std::uint64_t id_leg(std::uint64_t id) { return (id >> 48) & 0xff; }
std::uint64_t id_idx(std::uint64_t id) { return id & ((1ULL << 48) - 1); }

// ---- the child process ---------------------------------------------------

class Child {
 public:
  Child() = default;
  Child(const Child&) = delete;
  Child& operator=(const Child&) = delete;
  ~Child() { kill9(); }

  /// posix_spawn, not fork: the generator holds hundreds of MB of
  /// schedules and samples, and copying its page tables would be
  /// billed to the server's start-up (setup_s, restore_s).
  void spawn(const std::string& uds, const std::string& state_file) {
    int in[2], out[2];
    if (::pipe2(in, O_CLOEXEC) != 0 || ::pipe2(out, O_CLOEXEC) != 0) {
      throw std::runtime_error("pipe2 failed");
    }
    posix_spawn_file_actions_t fa;
    ::posix_spawn_file_actions_init(&fa);
    ::posix_spawn_file_actions_adddup2(&fa, in[0], STDIN_FILENO);
    ::posix_spawn_file_actions_adddup2(&fa, out[1], STDOUT_FILENO);
    std::vector<std::string> args = {"pb", "serve", "--uds", uds};
    if (!state_file.empty()) {
      args.push_back("--state-file");
      args.push_back(state_file);
    }
    std::vector<char*> argv;
    for (std::string& x : args) argv.push_back(x.data());
    argv.push_back(nullptr);
    const int rc = ::posix_spawn(&pid_, "/proc/self/exe", &fa, nullptr,
                                 argv.data(), environ);
    ::posix_spawn_file_actions_destroy(&fa);
    ::close(in[0]);
    ::close(out[1]);
    to_child_ = in[1];
    from_child_ = out[0];
    if (rc != 0) {
      pid_ = -1;
      throw std::runtime_error("posix_spawn failed");
    }
  }

  /// Reads "ready <loop_tid> <exec_tid,...>"; false on timeout or exit.
  bool wait_ready(ns_t timeout) {
    const ns_t deadline = now_ns() + timeout;
    std::string line;
    while (line.find('\n') == std::string::npos) {
      const ns_t left = deadline - now_ns();
      if (left <= 0) return false;
      pollfd p{from_child_, POLLIN, 0};
      if (::poll(&p, 1, static_cast<int>(left / 1'000'000) + 1) <= 0) continue;
      char buf[256];
      const ssize_t n = ::read(from_child_, buf, sizeof(buf));
      if (n <= 0) return false;
      line.append(buf, static_cast<std::size_t>(n));
    }
    char exec_list[200] = {0};
    int loop = 0;
    if (std::sscanf(line.c_str(), "ready %d %199s", &loop, exec_list) != 2) {
      return false;
    }
    loop_tid = loop;
    exec_tids.clear();
    for (char* tok = std::strtok(exec_list, ","); tok != nullptr;
         tok = std::strtok(nullptr, ",")) {
      exec_tids.push_back(static_cast<pid_t>(std::atol(tok)));
    }
    return true;
  }

  void kill9() {
    if (pid_ > 0) {
      ::kill(pid_, SIGKILL);
      ::waitpid(pid_, nullptr, 0);
      pid_ = -1;
    }
    for (int* fd : {&to_child_, &from_child_}) {
      if (*fd >= 0) ::close(*fd);
      *fd = -1;
    }
  }

  pid_t pid() const { return pid_; }
  pid_t loop_tid = 0;
  std::vector<pid_t> exec_tids;

 private:
  pid_t pid_ = -1;
  int to_child_ = -1;
  int from_child_ = -1;
};

// ---- the generator's socket layer ("client") ------------------------------

struct Conn {
  int fd = -1;
  std::string out;
  std::size_t out_off = 0;
  std::size_t out_frames = 0;
  std::uint64_t out_first = 0;
  std::vector<char> in = std::vector<char>(1 << 16);
  std::size_t in_len = 0;
  bool dead = false;
};

struct Frame {
  int conn;
  ms::Status status;
  std::uint64_t id;
  std::string_view body;
  ns_t t;
};

class Wire {
 public:
  Wire() = default;
  Wire(const Wire&) = delete;
  Wire& operator=(const Wire&) = delete;
  ~Wire() { close_all(); }

  bool connect_all(int n, const std::string& path, ns_t timeout) {
    close_all();
    conns_.resize(static_cast<std::size_t>(n));
    const ns_t deadline = now_ns() + timeout;
    for (Conn& c : conns_) {
      for (;;) {
        c.fd = ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
        sockaddr_un addr{};
        addr.sun_family = AF_UNIX;
        std::snprintf(addr.sun_path, sizeof(addr.sun_path), "%s", path.c_str());
        if (::connect(c.fd, reinterpret_cast<sockaddr*>(&addr),
                      sizeof(addr)) == 0) {
          break;
        }
        ::close(c.fd);
        c.fd = -1;
        if (now_ns() > deadline) return false;
        ::usleep(200);
      }
      ::fcntl(c.fd, F_SETFL, ::fcntl(c.fd, F_GETFL) | O_NONBLOCK);
    }
    return true;
  }

  void close_all() {
    for (Conn& c : conns_) {
      if (c.fd >= 0) ::close(c.fd);
    }
    conns_.clear();
  }

  void queue(int c, ms::Op op, std::uint64_t id, std::string_view body) {
    Conn& k = conns_[static_cast<std::size_t>(c)];
    if (k.out_frames == 0) k.out_first = id;
    k.out += ms::make_frame(static_cast<std::uint8_t>(op), id, body);
    ++k.out_frames;
  }

  /// Writes every connection's queued frames (one send per connection).
  void flush() {
    for (Conn& k : conns_) {
      if (k.out_off >= k.out.size() || k.dead) continue;
      const ns_t t0 = now_ns();
      const ssize_t n = ::send(k.fd, k.out.data() + k.out_off,
                               k.out.size() - k.out_off,
                               MSG_NOSIGNAL | MSG_DONTWAIT);
      const ns_t t1 = now_ns();
      ++send_calls;
      send_ns += static_cast<double>(t1 - t0);
      frames_sent += k.out_frames;
      spans.add("client.send", t0, t1, k.out_first, k.out_first);
      k.out_frames = 0;
      if (n < 0) {
        if (errno != EAGAIN && errno != EWOULDBLOCK) k.dead = true;
        continue;
      }
      k.out_off += static_cast<std::size_t>(n);
      if (k.out_off == k.out.size()) {
        k.out.clear();
        k.out_off = 0;
      }
    }
  }

  /// Waits up to `timeout` for replies and hands each decoded frame to
  /// `on_frame`.  Receive + decode time is billed to the client layer;
  /// the handler's own time is not.
  template <class F>
  void pump(ns_t timeout, F&& on_frame) {
    pollfd pfds[kConns];
    const int n = static_cast<int>(conns_.size());
    for (int i = 0; i < n; ++i) {
      const Conn& k = conns_[static_cast<std::size_t>(i)];
      pfds[i] = {k.fd, static_cast<short>(
                           POLLIN | (k.out_off < k.out.size() ? POLLOUT : 0)),
                 0};
    }
    // Waits under 1 ms poll with a zero timeout (spin), so open-loop
    // legs never sleep: a timer sleep wakes late, and a reply to a
    // sleeping generator waits for its vCPU to wake, both host costs
    // that would be billed to the server.
    timespec ts{};
    if (timeout > 1'000'000) {
      ts.tv_sec = timeout / 1'000'000'000;
      ts.tv_nsec = timeout % 1'000'000'000;
    }
    if (::ppoll(pfds, static_cast<nfds_t>(n), &ts, nullptr) <= 0) return;
    frames_.clear();
    const ns_t t0 = now_ns();
    ns_t t_arrive = t0;
    for (int i = 0; i < n; ++i) {
      Conn& k = conns_[static_cast<std::size_t>(i)];
      if (pfds[i].revents & (POLLERR | POLLHUP | POLLNVAL)) k.dead = true;
      if (!(pfds[i].revents & POLLIN)) continue;
      for (;;) {
        if (k.in.size() - k.in_len < 4096) k.in.resize(k.in.size() * 2);
        const ssize_t r = ::recv(k.fd, k.in.data() + k.in_len,
                                 k.in.size() - k.in_len, MSG_DONTWAIT);
        if (r > 0) {
          k.in_len += static_cast<std::size_t>(r);
          continue;
        }
        if (r == 0 || (errno != EAGAIN && errno != EWOULDBLOCK)) k.dead = true;
        break;
      }
      t_arrive = now_ns();
      std::size_t off = 0;
      while (k.in_len - off >= 4) {
        ms::Reader len_r(k.in.data() + off, 4);
        std::uint32_t len = 0;
        len_r.get_u32(len);
        if (k.in_len - off < 4 + static_cast<std::size_t>(len)) break;
        ms::Reader r(k.in.data() + off + 4, len);
        std::uint8_t status = 0;
        std::uint64_t id = 0;
        r.get_u8(status);
        r.get_u64(id);
        frames_.push_back({i, static_cast<ms::Status>(status), id,
                           std::string_view(k.in.data() + off + 13, len - 9),
                           t_arrive});
        off += 4 + len;
      }
      consumed_[i] = off;
    }
    const ns_t t1 = now_ns();
    recv_ns += static_cast<double>(t1 - t0);
    if (!frames_.empty()) {
      spans.add("client.recv", t0, t1, frames_.front().id, frames_.front().id);
    }
    for (const Frame& f : frames_) on_frame(f);
    for (int i = 0; i < n; ++i) {
      Conn& k = conns_[static_cast<std::size_t>(i)];
      if (!(pfds[i].revents & POLLIN)) continue;
      const std::size_t off = consumed_[i];
      std::memmove(k.in.data(), k.in.data() + off, k.in_len - off);
      k.in_len -= off;
    }
    flush();
  }

  bool any_dead() const {
    for (const Conn& k : conns_) {
      if (k.dead) return true;
    }
    return false;
  }

  void reset_counters() {
    send_calls = frames_sent = 0;
    send_ns = recv_ns = 0;
  }

  SpanRecorder spans;
  std::uint64_t send_calls = 0, frames_sent = 0;
  double send_ns = 0, recv_ns = 0;

 private:
  std::vector<Conn> conns_;
  std::vector<Frame> frames_;
  std::size_t consumed_[kConns] = {};
};

// ---- one run ---------------------------------------------------------------

struct Park {
  std::uint32_t counter;
  std::uint64_t level;
  int conn;
  std::uint64_t last = ~0ULL;  ///< highest level to re-arm at
  bool retired = false;        ///< answered at `last`, not re-armed
};

struct LegState {
  int leg = 0;
  bool open = true;
  double rate = 0;
  std::vector<Op> ops;          // open: the schedule; closed: ops issued
  std::vector<std::uint32_t> floor;  // acked count of the counter at send
  ns_t t0 = 0, warm_until = 0, end_sched = 0;
  std::uint64_t completed = 0;
  std::uint64_t measured = 0;   // closed: completions after warm-up
  ns_t measure_from = 0, measure_to = 0;
  std::vector<double> lat_us, late_us;
  ns_t last_reply = 0;
};

struct StatsMap {
  std::map<std::string, double> v;
  double operator[](const char* k) const {
    const auto it = v.find(k);
    return it == v.end() ? 0 : it->second;
  }
};

class RpcRun {
 public:
  RpcRun(const RpcSpec& w, const RunArgs& a) : w_(w), a_(a) {
    uds_ = a.work_dir + "/s" + std::to_string(::getpid()) + ".sock";
    state_ = w.durable ? a.work_dir + "/state-" + std::to_string(::getpid())
                       : std::string();
  }

  int run();

 private:
  // ---- plumbing
  void on_frame(const Frame& f);
  void spawn_and_connect();
  void open_counters();
  void arm(std::uint32_t slot);
  StatsMap stats(int conn);
  template <class Pred>
  bool pump_until(Pred done, ns_t timeout);
  void queue_op(LegState& leg, const Op& op, ns_t sched_abs);

  // ---- legs
  double setup_once();
  void open_leg(LegState& leg, double seconds, bool trace);
  void closed_leg(LegState& leg, double seconds);
  void probe_leg(LegState& leg, double seconds);
  void settle_wakes();
  void verify_sample();
  double restart_once(bool check_state);
  void remove_state_files();

  const RpcSpec& w_;
  const RunArgs& a_;
  std::string uds_, state_;
  Child child_;
  Wire wire_;
  Result res_;

  std::vector<std::uint64_t> ids_;       // counter index -> server id
  std::vector<std::uint32_t> acked_;     // acked increments per counter
  std::vector<std::uint32_t> sent_inc_;  // increments sent per counter
  std::uint64_t open_replies_ = 0;

  // Parked Checks and the schedule of the increments that release them.
  std::vector<Park> parks_;
  std::vector<int> track_;                 // counter -> tracked slot or -1
  std::vector<std::uint32_t> track_base_;  // sent_inc_ when tracking began
  std::vector<std::vector<ns_t>> inc_sched_;
  std::uint64_t wakes_ = 0;
  bool record_wakes_ = false;
  ns_t wake_from_ = 0;
  std::vector<double> wake_us_;

  std::vector<LegState*> legs_by_id_ = std::vector<LegState*>(64, nullptr);
  std::map<std::uint64_t, StatsMap> stats_replies_;
  std::uint64_t outstanding_other_ = 0;  // open/resolve/verify replies due
  std::uint64_t unknown_replies_ = 0;
  std::uint64_t stats_seq_ = 0;
  bool restart_check_ = false;
  bool sample_parked_ = false;
  double parked_peak_ = 0;
};

void RpcRun::on_frame(const Frame& f) {
  const std::uint64_t cls = id_cls(f.id);
  ms::Reader r(f.body);
  switch (cls) {
    case kClsOpen: {
      std::uint64_t id = 0, value = 0;
      if (f.status != ms::Status::kOk || !r.get_u64(id) || !r.get_u64(value)) {
        res_.fail("open refused");
      } else {
        ids_[id_idx(f.id)] = id;
      }
      ++open_replies_;
      --outstanding_other_;
      return;
    }
    case kClsLoad: {
      LegState* leg = legs_by_id_[id_leg(f.id)];
      const std::uint64_t i = id_idx(f.id);
      if (leg == nullptr || i >= leg->ops.size()) {
        ++unknown_replies_;
        return;
      }
      const Op& op = leg->ops[i];
      ++leg->completed;
      leg->last_reply = f.t;
      if (op.kind == kInc) {
        if (f.status != ms::Status::kOk) {
          res_.fail(std::string("increment answered ") +
                    std::string(ms::to_string(f.status)));
        } else {
          ++acked_[op.counter];
        }
      } else {
        std::uint64_t v = 0;
        if (f.status != ms::Status::kReached || !r.get_u64(v) ||
            v < leg->floor[i]) {
          res_.fail("Check(c,0) below the acked increments");
        }
      }
      if (leg->open) {
        const ns_t sched = leg->t0 + op.sched;
        if (sched >= leg->warm_until) {
          leg->lat_us.push_back(static_cast<double>(f.t - sched) / 1e3);
        }
        wire_.spans.add("rpc", sched, f.t, f.id);
      } else if (f.t >= leg->measure_from && f.t < leg->measure_to) {
        ++leg->measured;
      }
      return;
    }
    case kClsPark: {
      const std::uint32_t slot = static_cast<std::uint32_t>(id_idx(f.id));
      Park& p = parks_[slot];
      std::uint64_t v = 0;
      if (f.status != ms::Status::kReached || !r.get_u64(v) || v < p.level) {
        res_.fail("kReached below its level");
        return;
      }
      ++wakes_;
      const int t = track_[p.counter];
      const std::uint64_t k = p.level - 1 - track_base_[t];
      if (record_wakes_ && k < inc_sched_[t].size() &&
          inc_sched_[t][k] >= wake_from_) {
        wake_us_.push_back(static_cast<double>(f.t - inc_sched_[t][k]) / 1e3);
      }
      p.level += static_cast<std::uint64_t>(std::max(1, w_.park_depth));
      if (p.level <= p.last) {
        arm(slot);
      } else {
        p.retired = true;
      }
      return;
    }
    case kClsStats: {
      StatsMap m;
      const bool sampled = id_leg(f.id) == 1;
      std::uint32_t n = 0;
      r.get_u32(n);
      for (std::uint32_t i = 0; i < n; ++i) {
        std::string_view key;
        std::uint64_t v = 0;
        if (!r.get_str16(key) || !r.get_u64(v)) break;
        m.v[std::string(key)] = static_cast<double>(v);
      }
      if (sampled) {
        parked_peak_ = std::max(parked_peak_, m["parked_waits"]);
        return;
      }
      stats_replies_[id_idx(f.id)] = std::move(m);
      --outstanding_other_;
      return;
    }
    case kClsResolve:
    case kClsVerifyCheck: {
      --outstanding_other_;
      const std::uint32_t c = static_cast<std::uint32_t>(id_idx(f.id));
      if (restart_check_ && cls == kClsResolve) {
        // After a restart: durable state must hold every acked
        // increment; an in-memory server must have forgotten the name.
        std::uint64_t id = 0, v = 0;
        if (!w_.durable) {
          if (f.status == ms::Status::kUnknownCounter) return;
          res_.fail("in-memory restart still knows a counter");
        } else if (f.status != ms::Status::kOk || !r.get_u64(id) ||
                   !r.get_u64(v) || v != acked_[c]) {
          res_.fail("acked increments lost across SIGKILL + restore");
        }
        return;
      }
      std::uint64_t id = 0, v = 0;
      const bool ok = cls == kClsResolve
                          ? f.status == ms::Status::kOk && r.get_u64(id) &&
                                r.get_u64(v)
                          : f.status == ms::Status::kReached && r.get_u64(v);
      if (!ok || v != acked_[c]) res_.fail("final value != acked sum");
      return;
    }
    default:
      ++unknown_replies_;
  }
}

template <class Pred>
bool RpcRun::pump_until(Pred done, ns_t timeout) {
  const ns_t deadline = now_ns() + timeout;
  while (!done()) {
    if (wire_.any_dead() || now_ns() > deadline) return false;
    wire_.pump(5'000'000, [this](const Frame& f) { on_frame(f); });
  }
  return true;
}

void RpcRun::arm(std::uint32_t slot) {
  const Park& p = parks_[slot];
  std::string body;
  ms::put_u64(body, ids_[p.counter]);
  ms::put_u64(body, p.level);
  wire_.queue(p.conn, ms::Op::kCheck, req_id(kClsPark, 0, slot), body);
  ++res_.attempted;
}

StatsMap RpcRun::stats(int conn) {
  const std::uint64_t key = ++stats_seq_;
  std::string body;
  ms::put_u64(body, 0);
  wire_.queue(conn, ms::Op::kStats, req_id(kClsStats, 0, key), body);
  ++outstanding_other_;
  wire_.flush();
  if (!pump_until([&] { return stats_replies_.count(key) != 0; },
                  5'000'000'000)) {
    res_.fail("Stats op unanswered");
    return {};
  }
  StatsMap m = std::move(stats_replies_[key]);
  stats_replies_.erase(key);
  return m;
}

void RpcRun::spawn_and_connect() {
  child_.spawn(uds_, state_);
  if (!child_.wait_ready(30'000'000'000LL)) {
    res_.fail("server child did not become ready");
    throw std::runtime_error("server child did not become ready");
  }
  if (!wire_.connect_all(kConns, uds_, 5'000'000'000LL)) {
    res_.fail("connect failed");
    throw std::runtime_error("connect failed");
  }
}

void RpcRun::open_counters() {
  constexpr std::uint64_t kWindow = 256;
  open_replies_ = 0;
  std::uint32_t next = 0;
  while (open_replies_ < w_.counters) {
    while (next < w_.counters && next - open_replies_ < kWindow * kConns) {
      std::string body;
      ms::put_str16(body, counter_name(next));
      ms::put_str16(body, "");  // the server's default spec
      wire_.queue(static_cast<int>(next % kConns), ms::Op::kOpen,
                  req_id(kClsOpen, 0, next), body);
      ++outstanding_other_;
      ++res_.attempted;
      ++next;
    }
    wire_.flush();
    if (wire_.any_dead()) throw std::runtime_error("connection lost in setup");
    wire_.pump(5'000'000, [this](const Frame& f) { on_frame(f); });
  }
}

void RpcRun::remove_state_files() {
  if (state_.empty()) return;
  for (const char* suffix : {"", ".journal", ".tmp"}) {
    ::unlink((state_ + suffix).c_str());
  }
}

double RpcRun::setup_once() {
  child_.kill9();
  wire_.close_all();
  remove_state_files();
  ids_.assign(w_.counters, 0);
  acked_.assign(w_.counters, 0);
  sent_inc_.assign(w_.counters, 0);
  parks_.clear();
  track_.assign(w_.counters, -1);
  track_base_.clear();
  inc_sched_.clear();

  const ns_t t0 = now_ns();
  spawn_and_connect();
  open_counters();
  if (w_.park_depth > 0) {
    // Each counter carries park_depth parked Checks at its next levels,
    // split over the two waiter connections by counter parity.
    for (std::uint32_t c = 0; c < w_.counters; ++c) {
      track_[c] = static_cast<int>(track_base_.size());
      track_base_.push_back(0);
      inc_sched_.emplace_back();
      for (int d = 1; d <= w_.park_depth; ++d) {
        parks_.push_back({c, static_cast<std::uint64_t>(d),
                          static_cast<int>(c % 2)});
        arm(static_cast<std::uint32_t>(parks_.size() - 1));
      }
    }
    // A Stats reply on each waiter connection orders after its Checks.
    (void)stats(0);
    const StatsMap s1 = stats(1);
    if (s1["parked_waits"] != static_cast<double>(parks_.size())) {
      res_.fail("parked_waits after arming != parks sent");
    }
  }
  return static_cast<double>(now_ns() - t0) / 1e9;
}

void RpcRun::queue_op(LegState& leg, const Op& op, ns_t sched_abs) {
  const std::size_t i = leg.floor.size();
  leg.floor.push_back(acked_[op.counter]);
  if (op.kind == kInc) {
    ++sent_inc_[op.counter];
    const int t = track_[op.counter];
    if (t >= 0) inc_sched_[static_cast<std::size_t>(t)].push_back(sched_abs);
  }
  wire_.queue(op.conn, wire_op(op), req_id(kClsLoad, leg.leg, i),
              op_body(op, ids_[op.counter]));
  ++res_.attempted;
}

void RpcRun::settle_wakes() {
  // Every parked level at or below its counter's acked value must
  // have answered (and been re-armed above it).
  auto due = [this] {
    for (const Park& p : parks_) {
      if (!p.retired && p.level <= acked_[p.counter]) return false;
    }
    return true;
  };
  if (!pump_until(due, 10'000'000'000LL)) {
    res_.fail("parked Checks not released after their level was acked");
  }
}

void RpcRun::open_leg(LegState& leg, double seconds, bool trace) {
  leg.open = true;
  leg.ops = open_stream(w_, a_.seed, leg.leg, leg.rate, seconds);
  leg.floor.reserve(leg.ops.size());
  leg.late_us.reserve(leg.ops.size());
  leg.lat_us.reserve(leg.ops.size());
  legs_by_id_[static_cast<std::size_t>(leg.leg)] = &leg;
  if (trace) wire_.spans.enable(leg.ops.size() * 3);

  leg.t0 = now_ns() + 2'000'000;
  leg.warm_until = leg.t0 + static_cast<ns_t>(seconds * 0.15e9);
  leg.end_sched = leg.t0 + (leg.ops.empty() ? 0 : leg.ops.back().sched);
  if (record_wakes_) wake_from_ = leg.warm_until;
  const ns_t deadline = leg.end_sched + 20'000'000'000LL;
  ns_t next_sample = leg.t0;
  std::size_t next = 0;
  while (leg.completed < leg.ops.size()) {
    const ns_t now = now_ns();
    if (sample_parked_ && now >= next_sample) {
      // Asynchronous Stats every 100 ms for the parked-waits peak.
      std::string body;
      ms::put_u64(body, 0);
      wire_.queue(0, ms::Op::kStats, req_id(kClsStats, 1, 0), body);
      next_sample = now + 100'000'000;
    }
    while (next < leg.ops.size() && leg.t0 + leg.ops[next].sched <= now) {
      const ns_t sched = leg.t0 + leg.ops[next].sched;
      queue_op(leg, leg.ops[next], sched);
      if (sched >= leg.warm_until) {
        leg.late_us.push_back(static_cast<double>(now - sched) / 1e3);
      }
      ++next;
    }
    wire_.flush();
    if (wire_.any_dead() || now > deadline) {
      res_.fail("open-loop leg lost its connection or timed out",
                leg.ops.size() - leg.completed);
      throw std::runtime_error("leg aborted");
    }
    const ns_t wait = next < leg.ops.size()
                          ? leg.t0 + leg.ops[next].sched - now_ns()
                          : 5'000'000;
    wire_.pump(std::max<ns_t>(0, wait), [this](const Frame& f) { on_frame(f); });
  }
  wire_.spans.disable();
  settle_wakes();
}

void RpcRun::closed_leg(LegState& leg, double seconds) {
  leg.open = false;
  legs_by_id_[static_cast<std::size_t>(leg.leg)] = &leg;
  const std::vector<int> conns = load_conns(w_);
  std::vector<Rng> rngs;
  for (int c : conns) rngs.push_back(closed_rng(a_.seed, leg.leg, c));
  std::vector<std::size_t> inflight(kConns, 0);
  std::vector<std::uint64_t> done_seen;
  const ns_t t0 = now_ns();
  leg.measure_from = t0 + static_cast<ns_t>(seconds * 0.15e9);
  leg.measure_to = t0 + static_cast<ns_t>(seconds * 1e9);
  leg.ops.reserve(static_cast<std::size_t>(seconds * 400'000));
  std::uint64_t issued = 0;
  auto top_up = [&] {
    const bool issuing = now_ns() < leg.measure_to;
    for (std::size_t k = 0; k < conns.size(); ++k) {
      const int c = conns[k];
      while (issuing && inflight[static_cast<std::size_t>(c)] < w_.window) {
        leg.ops.push_back(draw_op(w_, rngs[k], c));
        queue_op(leg, leg.ops.back(), now_ns());
        ++inflight[static_cast<std::size_t>(c)];
        ++issued;
      }
    }
  };
  top_up();
  const ns_t deadline = leg.measure_to + 20'000'000'000LL;
  while (leg.completed < issued) {
    wire_.flush();
    if (wire_.any_dead() || now_ns() > deadline) {
      res_.fail("closed-loop leg lost its connection or timed out",
                issued - leg.completed);
      throw std::runtime_error("leg aborted");
    }
    wire_.pump(5'000'000, [&](const Frame& f) {
      if (id_cls(f.id) == kClsLoad && id_leg(f.id) == kLegClosed) {
        const Op& op = leg.ops[id_idx(f.id)];
        --inflight[op.conn];
      }
      on_frame(f);
    });
    top_up();
  }
  settle_wakes();
}

void RpcRun::probe_leg(LegState& leg, double seconds) {
  // 64 seeded counters each get one parked Check at their next level
  // on connection 0; connection 1 increments them round-robin at
  // kProbeRate, and each wake re-arms one level higher until the
  // counter's last increment of the leg, whose wake retires the park.
  const std::size_t n = static_cast<std::size_t>(kProbeRate * seconds);
  std::vector<std::uint32_t> probes;
  Rng rng(mix_seed(a_.seed, 200));
  while (probes.size() < kProbeCounters) {
    const auto c = static_cast<std::uint32_t>(rng.below(w_.counters));
    if (track_[c] >= 0) continue;
    track_[c] = static_cast<int>(track_base_.size());
    track_base_.push_back(sent_inc_[c]);
    inc_sched_.emplace_back();
    const std::size_t k = probes.size();
    const std::uint64_t incs = n / kProbeCounters + (k < n % kProbeCounters);
    probes.push_back(c);
    Park park{c, static_cast<std::uint64_t>(acked_[c]) + 1, 0};
    park.last = acked_[c] + incs;
    parks_.push_back(park);
    arm(static_cast<std::uint32_t>(parks_.size() - 1));
  }
  // The parks are armed once this answers.
  parked_peak_ = std::max(parked_peak_, stats(0)["parked_waits"]);

  leg.open = true;
  leg.rate = kProbeRate;
  leg.ops.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    leg.ops[i] = {static_cast<ns_t>(static_cast<double>(i) * 1e9 / kProbeRate),
                  probes[i % probes.size()], 1, kInc};
  }
  legs_by_id_[static_cast<std::size_t>(leg.leg)] = &leg;
  leg.t0 = now_ns() + 2'000'000;
  leg.warm_until = leg.t0 + static_cast<ns_t>(seconds * 0.15e9);
  leg.end_sched = leg.t0 + leg.ops.back().sched;
  record_wakes_ = true;
  wake_from_ = leg.warm_until;
  const ns_t deadline = leg.end_sched + 20'000'000'000LL;
  std::size_t next = 0;
  while (leg.completed < n) {
    const ns_t now = now_ns();
    while (next < n && leg.t0 + leg.ops[next].sched <= now) {
      queue_op(leg, leg.ops[next], leg.t0 + leg.ops[next].sched);
      ++next;
    }
    wire_.flush();
    if (wire_.any_dead() || now > deadline) {
      res_.fail("probe leg lost its connection or timed out", n - leg.completed);
      throw std::runtime_error("leg aborted");
    }
    const ns_t wait =
        next < n ? leg.t0 + leg.ops[next].sched - now_ns() : 5'000'000;
    wire_.pump(std::max<ns_t>(0, wait), [this](const Frame& f) { on_frame(f); });
  }
  settle_wakes();
  record_wakes_ = false;
  if (stats(0)["parked_waits"] != 0) res_.fail("probe parks left armed");
}

void RpcRun::verify_sample() {
  Rng rng(mix_seed(a_.seed, 300));
  std::vector<std::uint32_t> sample;
  for (std::uint32_t i = 0; i < std::min(kVerifySample, w_.counters); ++i) {
    sample.push_back(w_.counters <= kVerifySample
                         ? i
                         : static_cast<std::uint32_t>(rng.below(w_.counters)));
  }
  for (std::uint32_t c : sample) {
    std::string rb;
    ms::put_str16(rb, counter_name(c));
    wire_.queue(0, ms::Op::kResolve, req_id(kClsResolve, 0, c), rb);
    std::string cb;
    ms::put_u64(cb, ids_[c]);
    ms::put_u64(cb, 0);
    wire_.queue(0, ms::Op::kCheck, req_id(kClsVerifyCheck, 0, c), cb);
    outstanding_other_ += 2;
    res_.attempted += 2;
  }
  wire_.flush();
  if (!pump_until([this] { return outstanding_other_ == 0; },
                  10'000'000'000LL)) {
    res_.fail("verification reads unanswered", outstanding_other_);
  }
}

double RpcRun::restart_once(bool check_state) {
  child_.kill9();
  wire_.close_all();
  const ns_t t0 = now_ns();
  child_.spawn(uds_, state_);
  if (!child_.wait_ready(60'000'000'000LL) ||
      !wire_.connect_all(1, uds_, 5'000'000'000LL)) {
    res_.fail("restart did not come back");
    throw std::runtime_error("restart failed");
  }
  std::string rb;
  ms::put_str16(rb, counter_name(0));
  wire_.queue(0, ms::Op::kResolve, req_id(kClsResolve, 1, 0), rb);
  ++outstanding_other_;
  ++res_.attempted;
  restart_check_ = true;
  wire_.flush();
  if (!pump_until([this] { return outstanding_other_ == 0; },
                  10'000'000'000LL)) {
    res_.fail("Resolve after restart unanswered");
  }
  const double secs = static_cast<double>(now_ns() - t0) / 1e9;
  if (check_state) {
    // Durable: every counter that took an acked increment must come
    // back with exactly that many; in-memory: the names are gone.
    for (std::uint32_t c = 1; c < w_.counters; ++c) {
      if (w_.durable ? acked_[c] == 0 : c > 16) continue;
      std::string b;
      ms::put_str16(b, counter_name(c));
      wire_.queue(0, ms::Op::kResolve, req_id(kClsResolve, 1, c), b);
      ++outstanding_other_;
      ++res_.attempted;
      if (outstanding_other_ >= 1024) {
        wire_.flush();
        pump_until([this] { return outstanding_other_ < 512; },
                   10'000'000'000LL);
      }
    }
    wire_.flush();
    if (!pump_until([this] { return outstanding_other_ == 0; },
                    20'000'000'000LL)) {
      res_.fail("post-restore reads unanswered", outstanding_other_);
    }
  }
  restart_check_ = false;
  return secs;
}

struct LoopSample {
  TaskSample loop;
  double exec_cpu_ns = 0;
  StatsMap stats;
};

std::vector<double> pooled(const std::vector<LegState>& legs,
                           std::vector<double> LegState::*field) {
  std::vector<double> out;
  for (const LegState& l : legs) {
    out.insert(out.end(), (l.*field).begin(), (l.*field).end());
  }
  return out;
}

int RpcRun::run() {
  ::prctl(PR_SET_TIMERSLACK, 1UL, 0, 0, 0);
  const bool wake = is_wake(w_);
  const LegPlan lp = plan(a_.seconds);

  std::vector<LegState> light(kRounds), heavy(kRounds), closed(kRounds);
  for (int r = 0; r < kRounds; ++r) {
    light[r].leg = kLegLight + r;
    light[r].rate = w_.light_rate;
    heavy[r].leg = kLegHeavy + r;
    heavy[r].rate = w_.heavy_rate;
    closed[r].leg = kLegClosed + r;
  }
  LegState traced, probe;
  traced.leg = kLegTraced;
  traced.rate = w_.heavy_rate;
  probe.leg = kLegProbe;

  std::vector<double> setups, restarts;
  double rss = 0;
  // Ledger deltas, summed over the heavy rounds.
  std::map<std::string, double> d_stats;
  TaskSample d_loop;
  double heavy_exec_cpu = 0, probe_exec_cpu = 0;
  std::uint64_t wakes_heavy = 0, wakes_probe = 0;
  double parked_peak = 0;
  std::uint64_t traced_sends = 0, traced_frames = 0;
  double traced_send_ns = 0, traced_recv_ns = 0;
  std::vector<double> rpc_us;
  try {
    auto exec_cpu = [&] {
      double sum = 0;
      for (pid_t t : child_.exec_tids) sum += read_task(child_.pid(), t).cpu_ns;
      return sum;
    };
    auto sample = [&] {
      LoopSample x;
      x.stats = stats(0);
      x.loop = read_task(child_.pid(), child_.loop_tid);
      x.exec_cpu_ns = exec_cpu();
      return x;
    };

    for (int r = 0; r < kRounds; ++r) {
      // Each round gets a fresh server, so one unlucky child (where
      // its 1.6 GB of counters landed) does not set every sample.
      if (r > 0) verify_sample();  // the previous round's server
      setups.push_back(setup_once());
      info("setup %s: %u counters, %zu parked Checks", w_.name, w_.counters,
           parks_.size());
      open_leg(light[r], lp.light, false);

      const LoopSample before = sample();
      const std::uint64_t w0 = wakes_;
      record_wakes_ = wake;
      sample_parked_ = true;
      open_leg(heavy[r], lp.heavy, false);
      sample_parked_ = false;
      record_wakes_ = false;
      const LoopSample after = sample();
      for (const auto& [key, v] : after.stats.v) {
        d_stats[key] += v - before.stats[key.c_str()];
      }
      d_loop.cpu_ns += after.loop.cpu_ns - before.loop.cpu_ns;
      d_loop.voluntary_switches +=
          after.loop.voluntary_switches - before.loop.voluntary_switches;
      heavy_exec_cpu += after.exec_cpu_ns - before.exec_cpu_ns;
      wakes_heavy += wakes_ - w0;
      parked_peak = std::max({parked_peak, parked_peak_,
                              before.stats["parked_waits"],
                              after.stats["parked_waits"]});

      closed_leg(closed[r], lp.closed);
    }

    if (a_.trace) {
      wire_.reset_counters();
      open_leg(traced, lp.heavy, true);
      traced_sends = wire_.send_calls;
      traced_frames = wire_.frames_sent;
      traced_send_ns = wire_.send_ns;
      traced_recv_ns = wire_.recv_ns;
      for (const Span& sp : wire_.spans.spans()) {
        if (std::strcmp(sp.name, "rpc") == 0) {
          rpc_us.push_back(static_cast<double>(sp.end - sp.start) / 1e3);
        }
      }
      if (!wake) {
        const double e0 = exec_cpu();
        const std::uint64_t pw0 = wakes_;
        probe_leg(probe, lp.closed);
        probe_exec_cpu = exec_cpu() - e0;
        wakes_probe = wakes_ - pw0;
      }
    }
    verify_sample();
    if (unknown_replies_ > 0) res_.fail("replies with unknown req_id", unknown_replies_);
    rss = vmhwm_mb(child_.pid());
    const int n_restarts = w_.durable ? kRestartsDurable : 1;
    for (int i = 0; i < n_restarts; ++i) restarts.push_back(restart_once(i == 0));
  } catch (const std::exception& e) {
    res_.fail(std::string("run aborted: ") + e.what());
  }
  child_.kill9();
  wire_.close_all();
  ::unlink(uds_.c_str());

  // ---- validity guard: a latency is reported only for a leg the
  // generator kept on schedule and whose backlog drained.
  auto leg_valid = [&](LegState& leg, const char* name) {
    std::vector<double> late = leg.late_us;
    const double late50 = quantile(late, 0.5);
    const double late99 = quantile(late, 0.99);
    const double span_s =
        leg.last_reply > leg.t0
            ? static_cast<double>(leg.last_reply - leg.t0) / 1e9
            : 1;
    const double achieved = static_cast<double>(leg.completed) / span_s;
    const double drain_ms =
        static_cast<double>(leg.last_reply - leg.end_sched) / 1e6;
    info("leg %s.%d offered %.0f/s achieved %.0f/s late_p50 %.1fus "
         "late_p99 %.1fus drain %.1fms samples %zu",
         name, leg.leg % 10, leg.rate, achieved, late50, late99, drain_ms,
         leg.lat_us.size());
    // Behind: the median send a millisecond late (late sends go out at
    // once and are timed from their schedule, so occasional lateness
    // biases nothing).  Backlog grew: over a second to drain after the
    // last send.  A single stall near the end lowers `achieved` without
    // a growing backlog, so the achieved rate is reported, not judged.
    if (late50 > 1000 || drain_ms > 1000) {
      res_.fail(std::string("invalid leg (generator behind or backlog grew): ") +
                name);
    }
  };
  for (int r = 0; r < kRounds; ++r) {
    leg_valid(light[r], "light");
    leg_valid(heavy[r], "heavy");
  }
  if (a_.trace) leg_valid(traced, "traced");
  if (a_.trace && !wake) leg_valid(probe, "probe");

  const std::vector<double> light_us = pooled(light, &LegState::lat_us);
  const std::vector<double> heavy_us = pooled(heavy, &LegState::lat_us);
  std::vector<double> heavy_late = pooled(heavy, &LegState::late_us);
  const double p50 = windowed_quantile(heavy_us, 0.5);
  // Closed-loop throughput: completions over the measured spans.
  std::size_t closed_done = 0;
  double closed_ns = 0;
  for (const LegState& c : closed) {
    closed_done += c.measured;
    closed_ns += static_cast<double>(c.measure_to - c.measure_from);
  }
  const double sat_kops =
      static_cast<double>(closed_done) / std::max(1.0, closed_ns) * 1e6;
  const std::vector<double>& wake_us = wake_us_;

  if (!a_.trace) {
    res_.metric("setup_s", median(setups), "s");
    res_.metric("light_p50_us", windowed_quantile(light_us, 0.5), "us");
    res_.metric("p50_us", p50, "us");
    res_.metric("rss_mb", rss, "MiB");
    res_.unbounded("sat_kops", sat_kops, "kops/s");
    res_.unbounded("light_p99_us", windowed_quantile(light_us, 0.99), "us");
    res_.unbounded("p99_us", windowed_quantile(heavy_us, 0.99), "us");
    if (wake) {
      res_.unbounded("wake_p50_us", windowed_quantile(wake_us, 0.5), "us");
      res_.unbounded("wake_p99_us", windowed_quantile(wake_us, 0.99), "us");
    }
    // Only a durable child restores anything; an in-memory restart
    // is a check (the names are gone), not a restore.
    if (w_.durable) res_.unbounded("restore_s", quantile(restarts, 0.25), "s");
    info("samples light %zu heavy %zu wake %zu closed %zu", light_us.size(),
         heavy_us.size(), wake_us.size(), closed_done);
    res_.print();
    return 0;
  }

  // ---- per-layer ledger (traced run) ----------------------------------
  double heavy_ops = 0;
  for (const LegState& h : heavy) heavy_ops += static_cast<double>(h.ops.size());
  const double d_req = d_stats["requests"];
  const double d_sw = d_loop.voluntary_switches;
  const double loop_cpu_us = d_loop.cpu_ns / 1e3 / heavy_ops;

  // Replay the first heavy round's own frames through the protocol layer.
  double encode_ns = 0, decode_ns = 0;
  {
    const std::vector<Op> ops = open_stream(w_, a_.seed, kLegHeavy,
                                            w_.heavy_rate, lp.heavy);
    std::vector<std::string> frames;
    frames.reserve(ops.size());
    const ns_t e0 = now_ns();
    for (std::size_t i = 0; i < ops.size(); ++i) {
      frames.push_back(ms::make_frame(static_cast<std::uint8_t>(wire_op(ops[i])),
                                      i, op_body(ops[i], ops[i].counter + 1)));
    }
    const ns_t e1 = now_ns();
    std::uint64_t sink = 0;
    for (const std::string& f : frames) {
      ms::Reader r(f);
      std::uint32_t len = 0;
      std::uint8_t op = 0;
      std::uint64_t id = 0, counter = 0, arg = 0;
      r.get_u32(len);
      r.get_u8(op);
      r.get_u64(id);
      r.get_u64(counter);
      r.get_u64(arg);
      sink += len + op + id + counter + arg;
    }
    const ns_t e2 = now_ns();
    if (sink == 0 && !frames.empty()) res_.fail("protocol replay decoded nothing");
    const double n = std::max<double>(1, static_cast<double>(frames.size()));
    encode_ns = static_cast<double>(e1 - e0) / n;
    decode_ns = static_cast<double>(e2 - e1) / n;
  }

  const std::string scratch = a_.work_dir + "/layer-" + std::to_string(::getpid());
  ::mkdir(scratch.c_str(), 0755);
  const StateFileTimes sf = time_state_file(scratch, w_.counters, state_);
  const CoreTimes core = time_core(monotonic::server::ServerOptions{}.default_spec);
  const double hop_us =
      time_post_hop_us(monotonic::server::ServerOptions{}.executor_threads);
  ::rmdir(scratch.c_str());

  const double traced_ops = static_cast<double>(traced.ops.size());
  const double send_us = traced_send_ns / 1e3 / std::max(1.0, traced_ops);
  const double recv_us = traced_recv_ns / 1e3 / std::max(1.0, traced_ops);
  const double rpc_p50 = quantile(rpc_us, 0.5);
  const double wake_n = static_cast<double>(wake ? wakes_heavy : wakes_probe);
  const double exec_cpu = wake ? heavy_exec_cpu : probe_exec_cpu;

  res_.metric("client.send_us_per_op", send_us, "us");
  res_.metric("client.recv_us_per_op", recv_us, "us");
  res_.metric("client.frames_per_send",
              static_cast<double>(traced_frames) /
                  std::max<double>(1, static_cast<double>(traced_sends)),
              "count");
  res_.metric("gen.late_p99_us", quantile(heavy_late, 0.99), "us");
  res_.metric("protocol.encode_ns", encode_ns, "ns");
  res_.metric("protocol.decode_ns", decode_ns, "ns");
  res_.metric("server.bytes_in_per_op", d_stats["bytes_in"] / heavy_ops, "count");
  res_.metric("server.bytes_out_per_op", d_stats["bytes_out"] / heavy_ops, "count");
  res_.metric("server.loop_cpu_us_per_op", loop_cpu_us, "us");
  res_.metric("server.loop_ctx_switches_per_op", d_sw / heavy_ops, "count");
  res_.metric("server.requests_per_loop_wakeup", d_req / std::max(1.0, d_sw),
              "count");
  res_.metric("server.increments_per_flush",
              d_stats["flushes"] > 0
                  ? d_stats["batched_increments"] / d_stats["flushes"]
                  : 0,
              "count");
  res_.metric("server.exec_cpu_us_per_wake",
              wake_n > 0 ? exec_cpu / 1e3 / wake_n : 0, "us");
  res_.metric("server.parked_peak", std::max(parked_peak, parked_peak_),
              "count");
  if (w_.durable) {
    // Only rpc_durable journals; no workload in BENCHMARK.json does.
    res_.unbounded("server.journal_bytes_per_op",
                   d_stats["journal_records"] * sf.increment_record_bytes /
                       heavy_ops,
                   "count");
    res_.unbounded("server.snapshots_per_kop",
                   d_stats["snapshots_written"] / (heavy_ops / 1e3), "count");
  }
  res_.metric("completion.post_hop_us", hop_us, "us");
  res_.metric("core.increment_ns", core.increment_ns, "ns");
  res_.metric("core.check_fast_ns", core.check_fast_ns, "ns");
  res_.metric("core.onreach_arm_ns", core.onreach_arm_ns, "ns");
  res_.metric("core.onreach_fire_ns", core.onreach_fire_ns, "ns");
  // No server thread ever blocks on a counter (parks are OnReach
  // registrations), so the reader-side policy metrics are zero here.
  res_.metric("core.suspensions_per_item", 0, "count");
  res_.metric("core.useful_wake_ratio", 0, "ratio");
  res_.metric("core.fast_check_share", 0, "ratio");
  res_.metric("core.reader_ctx_switches_per_item", 0, "count");
  res_.metric("state_file.append_fsync_us", sf.append_fsync_us, "us");
  res_.metric("state_file.snapshot_save_ms", sf.snapshot_save_ms, "ms");
  res_.metric("state_file.restore_ms", sf.restore_ms, "ms");
  res_.metric("ledger.residual_us",
              rpc_p50 - send_us - recv_us - (encode_ns + decode_ns) / 1e3 -
                  loop_cpu_us,
              "us");
  res_.metric("trace.overhead_p50_us",
              windowed_quantile(traced.lat_us, 0.5) - p50, "us");
  if (!wake) {
    // The probe leg runs in traced runs only.
    res_.unbounded("wake_p50_us", windowed_quantile(wake_us, 0.5), "us");
    res_.unbounded("wake_p99_us", windowed_quantile(wake_us, 0.99), "us");
  }
  if (!a_.trace_out.empty() &&
      !wire_.spans.write_chrome_json(a_.trace_out, 200'000)) {
    info("could not write %s", a_.trace_out.c_str());
  }
  res_.print();
  return 0;
}

}  // namespace

bool is_rpc_workload(const std::string& name) { return find_spec(name) != nullptr; }

int rpc_main(const RunArgs& args) {
  const RpcSpec* w = find_spec(args.workload);
  RpcRun run(*w, args);
  return run.run();
}

std::uint64_t rpc_opstream_hash(const std::string& workload, std::uint64_t seed,
                                double seconds) {
  const RpcSpec* w = find_spec(workload);
  std::uint64_t h = fnv1a(workload.data(), workload.size());
  auto fold = [&](const std::vector<Op>& ops) {
    for (std::size_t i = 0; i < ops.size(); ++i) {
      const std::string f =
          ms::make_frame(static_cast<std::uint8_t>(wire_op(ops[i])), i,
                         op_body(ops[i], ops[i].counter));
      h = fnv1a(f.data(), f.size(), h);
      h = fnv1a(&ops[i].sched, sizeof(ops[i].sched), h);
      h = fnv1a(&ops[i].conn, sizeof(ops[i].conn), h);
    }
  };
  const LegPlan lp = plan(seconds);
  for (int r = 0; r < kRounds; ++r) {
    fold(open_stream(*w, seed, kLegLight + r, w->light_rate, lp.light));
    fold(open_stream(*w, seed, kLegHeavy + r, w->heavy_rate, lp.heavy));
    for (int c : load_conns(*w)) {
      Rng rng = closed_rng(seed, kLegClosed + r, c);
      std::vector<Op> ops;
      for (int i = 0; i < 1000; ++i) ops.push_back(draw_op(*w, rng, c));
      fold(ops);
    }
  }
  return h;
}

}  // namespace pb

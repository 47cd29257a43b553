// bench_server — experiment E16 (counter-as-a-service shard server).
//
// A YCSB-style OPEN-LOOP workload against an in-process CounterServer
// over a unix-domain socket:
//
//   E16.a server_rpc   C client connections drive a fixed-rate arrival
//                      schedule of small RPCs — 80% acked Increments,
//                      20% level-0 Checks (a fast-path read) — spread
//                      over N logical counters (N >= 100k, exercising
//                      the name->shard->engine fan-in).  Arrivals are
//                      timestamped by the SCHEDULE, not by the send,
//                      so server-side queueing shows up as latency
//                      instead of silently slowing the generator
//                      (no coordinated omission).  Reported rows:
//                        server_rpc   aggregate ns/op (gated)
//                        server_p50   p50 request latency ns (trend)
//                        server_p99   p99 request latency ns (trend)
//
// The arrival rate is calibrated: a short closed-loop burst estimates
// the service rate, and the open loop then runs at ~40% of it — busy
// enough to batch increments per event-loop tick, below saturation so
// p99 measures the server, not an unbounded queue.
//
// Shapes to look for: ns/op far below one core's context-switch-pair
// cost times two (batching amortizes the write side); p50 within a
// small multiple of a UDS round trip; p99 bounded by the event-loop
// tick cadence, not the counter count.
//
// Experiment E17 (fault tolerance, this PR) rides in the same binary:
//
//   E17.a server_recovery     wall time to Start() a server that must
//                             restore N named counters, divided by N —
//                             measured twice: from a journal alone (the
//                             crash-shaped worst case: every op
//                             replayed) and from a snapshot (the
//                             drained best case: one sequential read).
//                             Reported ns are per restored counter so
//                             the row is scale-free.
//   E17.b server_retry_storm  C reconnecting clients are mid-workload
//                             when the server is crash-stopped; after a
//                             fixed downtime the server restarts and
//                             the row reports the worst client's time
//                             from listener-up to its increment acked —
//                             reconnect, re-Hello, id remap, and the
//                             jittered backoff spread, end to end.

#include <cstdio>

#include "bench_util.hpp"

#if defined(_WIN32)

int main(int argc, char** argv) {
  (void)monotonic::bench::consume_common_flags(&argc, argv);
  std::printf("bench_server: POSIX-only (sockets/fork); skipped\n");
  return 0;
}

#else  // POSIX

#include <poll.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <random>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "monotonic/server/client.hpp"
#include "monotonic/server/protocol.hpp"
#include "monotonic/server/server.hpp"

namespace monotonic {
namespace {

using bench::banner;
using bench::note;
namespace ms = monotonic::server;
using Clock = std::chrono::steady_clock;

bool g_quick = false;
bench::JsonlWriter g_json;

constexpr int kConnections = 4;
constexpr std::size_t kCounters = 100'000;

// Bench-issued req_ids start far above anything the client's own
// sequence will reach, so manual send_frame pipelining can never
// collide with ServerClient-internal requests.
constexpr std::uint64_t kReqBase = std::uint64_t{1} << 32;

std::string sock_path() {
  return "/tmp/mc-e16-" + std::to_string(::getpid()) + ".sock";
}

/// Pipelined opens: window of in-flight kOpen frames per connection.
/// Returns the ids for names [first, first+count).
std::vector<std::uint64_t> open_range(ms::ServerClient& c, std::size_t first,
                                      std::size_t count) {
  constexpr std::size_t kWindow = 512;
  std::vector<std::uint64_t> ids(count, 0);
  std::size_t sent = 0, received = 0;
  while (received < count) {
    while (sent < count && sent - received < kWindow) {
      std::string body;
      ms::put_str16(body, "e16/c" + std::to_string(first + sent));
      ms::put_str16(body, "");  // server default spec
      c.send_frame(ms::Op::kOpen, kReqBase + sent, body);
      ++sent;
    }
    const ms::ServerClient::Response resp = c.read_response();
    if (resp.status != ms::Status::kOk) {
      throw std::runtime_error("E16 open failed: " +
                               std::string(ms::to_string(resp.status)));
    }
    ms::Reader r(resp.body);
    std::uint64_t id = 0;
    r.get_u64(id);
    ids[resp.req_id - kReqBase] = id;
    ++received;
  }
  return ids;
}

std::string increment_frame(std::uint64_t req_id, std::uint64_t id) {
  std::string body;
  ms::put_u64(body, id);
  ms::put_u64(body, 1);
  ms::put_u8(body, 0);  // acked
  return ms::make_frame(static_cast<std::uint8_t>(ms::Op::kIncrement), req_id,
                        body);
}

std::string check0_frame(std::uint64_t req_id, std::uint64_t id) {
  std::string body;
  ms::put_u64(body, id);
  ms::put_u64(body, 0);  // level 0: always reached — a fast-path read
  return ms::make_frame(static_cast<std::uint8_t>(ms::Op::kCheck), req_id,
                        body);
}

/// Closed-loop calibration burst: `ops` acked increments with a fixed
/// in-flight window.  Returns achieved ops/sec on this connection.
double calibrate(ms::ServerClient& c, const std::vector<std::uint64_t>& ids,
                 std::size_t ops) {
  constexpr std::size_t kWindow = 64;
  std::mt19937 rng(7);
  std::uniform_int_distribution<std::size_t> pick(0, ids.size() - 1);
  const auto t0 = Clock::now();
  std::size_t sent = 0, received = 0;
  while (received < ops) {
    while (sent < ops && sent - received < kWindow) {
      c.send_raw(increment_frame(kReqBase + sent, ids[pick(rng)]));
      ++sent;
    }
    (void)c.read_response();
    ++received;
  }
  const double secs =
      std::chrono::duration<double>(Clock::now() - t0).count();
  return static_cast<double>(ops) / secs;
}

struct LoadResult {
  std::vector<double> latencies_ns;  // one per completed request
  double first_sched_ns = 0;         // against a shared epoch
  double last_resp_ns = 0;
  std::size_t completed = 0;
};

/// One connection's open-loop run: `ops` arrivals at `rate` ops/sec,
/// latency measured from the SCHEDULED arrival to the response.
LoadResult open_loop(ms::ServerClient& c, const std::vector<std::uint64_t>& ids,
                     std::size_t ops, double rate, Clock::time_point epoch,
                     unsigned seed) {
  constexpr std::size_t kMaxInFlight = 4096;
  std::mt19937 rng(seed);
  std::uniform_int_distribution<std::size_t> pick(0, ids.size() - 1);
  std::uniform_int_distribution<int> mix(0, 99);

  const double gap_ns = 1e9 / rate;
  const auto start = Clock::now();
  LoadResult out;
  out.latencies_ns.reserve(ops);
  out.first_sched_ns =
      std::chrono::duration<double, std::nano>(start - epoch).count();

  std::unordered_map<std::uint64_t, Clock::time_point> sched;
  sched.reserve(kMaxInFlight * 2);
  pollfd pfd{c.fd(), POLLIN, 0};

  std::size_t sent = 0;
  while (out.completed < ops) {
    // Drain every response already waiting; timestamp on arrival.
    while (sched.size() > 0 && ::poll(&pfd, 1, 0) == 1) {
      const ms::ServerClient::Response resp = c.read_response();
      const auto now = Clock::now();
      auto it = sched.find(resp.req_id);
      if (it != sched.end()) {
        out.latencies_ns.push_back(
            std::chrono::duration<double, std::nano>(now - it->second)
                .count());
        sched.erase(it);
        ++out.completed;
        out.last_resp_ns =
            std::chrono::duration<double, std::nano>(now - epoch).count();
      }
    }
    // Microburst pacing: send every arrival whose scheduled time has
    // passed, then BLOCK until the next one is due (>= 1ms — finer
    // sleeps would busy-spin the generator threads and starve the
    // server on small hosts).  Latency still anchors to each op's
    // scheduled `due`, so bursts don't flatter the numbers.
    const auto now = Clock::now();
    while (sent < ops && sched.size() < kMaxInFlight) {
      const auto due =
          start + std::chrono::nanoseconds(
                      static_cast<std::int64_t>(gap_ns * sent));
      if (due > now) break;
      const std::uint64_t rid = kReqBase + sent;
      const std::uint64_t id = ids[pick(rng)];
      c.send_raw(mix(rng) < 80 ? increment_frame(rid, id)
                               : check0_frame(rid, id));
      sched.emplace(rid, due);
      ++sent;
    }
    if (sent < ops && sched.size() < kMaxInFlight) {
      const auto due =
          start + std::chrono::nanoseconds(
                      static_cast<std::int64_t>(gap_ns * sent));
      const auto wait_ms =
          std::chrono::duration_cast<std::chrono::milliseconds>(
              due - Clock::now())
              .count();
      ::poll(&pfd, 1, std::max<int>(1, static_cast<int>(wait_ms)));
    } else {
      // All sent (or window full): block for the next response.
      ::poll(&pfd, 1, 100);
    }
  }
  return out;
}

void run_e16() {
  banner("E16", "counter-as-a-service shard server (open-loop RPC)");

  ms::ServerOptions opts;
  opts.uds_path = sock_path();
  ms::CounterServer server(opts);
  server.Start();

  const std::size_t per_conn_counters = kCounters / kConnections;
  const std::size_t measure_ops = g_quick ? 10'000 : 100'000;  // per conn
  const std::size_t calib_ops = g_quick ? 2'000 : 5'000;

  // Setup: each connection opens its slice of the name space.
  std::vector<ms::ServerClient> conns;
  std::vector<std::vector<std::uint64_t>> ids(kConnections);
  for (int i = 0; i < kConnections; ++i) {
    conns.push_back(ms::ServerClient::connect_uds(opts.uds_path));
  }
  {
    std::vector<std::thread> ts;
    for (int i = 0; i < kConnections; ++i) {
      ts.emplace_back([&, i] {
        ids[i] = open_range(conns[i], i * per_conn_counters,
                            per_conn_counters);
      });
    }
    for (auto& t : ts) t.join();
  }
  note("opened " + std::to_string(kCounters) + " logical counters over " +
       std::to_string(kConnections) + " connections");

  // Calibrate the aggregate service rate with all connections running
  // closed-loop bursts CONCURRENTLY — they contend for the same cores
  // during the measurement too, so a per-connection solo rate would
  // overestimate and push the open loop into saturation.
  std::vector<double> calib(kConnections, 0);
  {
    std::vector<std::thread> ts;
    for (int i = 0; i < kConnections; ++i) {
      ts.emplace_back(
          [&, i] { calib[i] = calibrate(conns[i], ids[i], calib_ops); });
    }
    for (auto& t : ts) t.join();
  }
  double aggregate_rate = 0;
  for (const double r : calib) aggregate_rate += r;
  const double target_rate = 0.4 * aggregate_rate;
  note("calibration: ~" + std::to_string(static_cast<long>(aggregate_rate)) +
       " ops/s aggregate closed-loop; open-loop target " +
       std::to_string(static_cast<long>(target_rate)) + " ops/s");

  // Measure: all connections run their schedules concurrently.
  const auto epoch = Clock::now();
  std::vector<LoadResult> results(kConnections);
  {
    std::vector<std::thread> ts;
    for (int i = 0; i < kConnections; ++i) {
      ts.emplace_back([&, i] {
        results[i] = open_loop(conns[i], ids[i], measure_ops,
                               target_rate / kConnections, epoch,
                               static_cast<unsigned>(1000 + i));
      });
    }
    for (auto& t : ts) t.join();
  }

  std::vector<double> lat;
  double first_ns = 1e300, last_ns = 0;
  std::size_t total = 0;
  for (const auto& r : results) {
    lat.insert(lat.end(), r.latencies_ns.begin(), r.latencies_ns.end());
    first_ns = std::min(first_ns, r.first_sched_ns);
    last_ns = std::max(last_ns, r.last_resp_ns);
    total += r.completed;
  }
  std::sort(lat.begin(), lat.end());
  const double p50 = lat[lat.size() / 2];
  const double p99 = lat[(lat.size() * 99) / 100];
  const double span_s = (last_ns - first_ns) / 1e9;
  const double thr = static_cast<double>(total) / span_s;
  const double ns_per_op = 1e9 / thr;

  char p50s[32], p99s[32];
  std::snprintf(p50s, sizeof p50s, "%.1f", p50 / 1000.0);
  std::snprintf(p99s, sizeof p99s, "%.1f", p99 / 1000.0);
  TextTable table({"counters", "conns", "mix", "ops", "thr ops/s", "ns/op",
                   "p50 us", "p99 us"});
  table.add_row({std::to_string(kCounters), std::to_string(kConnections),
                 "80%inc/20%chk", std::to_string(total),
                 std::to_string(static_cast<long>(thr)),
                 std::to_string(static_cast<long>(ns_per_op)), p50s, p99s});
  bench::print(table);

  const auto st = server.stats();
  note("server: " + std::to_string(st.batched_increments) +
       " increments in " + std::to_string(st.flushes) +
       " flushes (batching " +
       std::to_string(st.flushes == 0
                          ? 0.0
                          : static_cast<double>(st.batched_increments) /
                                static_cast<double>(st.flushes)) +
       " per tick)");

  g_json.record_levels("server_rpc", opts.default_spec, kConnections,
                       ns_per_op, 1, kCounters);
  g_json.record_levels("server_p50", opts.default_spec, kConnections, p50, 1,
                       kCounters);
  g_json.record_levels("server_p99", opts.default_spec, kConnections, p99, 1,
                       kCounters);

  conns.clear();
  server.Stop();
}

std::string state_path() {
  return "/tmp/mc-e17-" + std::to_string(::getpid()) + ".state";
}

ms::ServerOptions e17_options() {
  ms::ServerOptions opts;
  opts.uds_path = sock_path();
  opts.state_file = state_path();
  // The bench measures restore cost, not disk sync cost: fsync per
  // tick would time the device, and the recovery suite already proves
  // the acked-implies-durable ordering with it on.
  opts.journal_fsync = false;
  return opts;
}

void run_e17() {
  banner("E17", "fault tolerance: crash recovery and retry storm");

  const std::size_t n_counters = g_quick ? 2'000 : 10'000;

  // Populate: N named counters, one acked increment each, through a
  // pipelined window — all of it lands in the journal (no snapshot is
  // ever written on this path), so the first restart below replays
  // every record.
  {
    ms::CounterServer server(e17_options());
    server.Start();
    ms::ServerClient c = ms::ServerClient::connect_uds(sock_path());
    const std::vector<std::uint64_t> ids = open_range(c, 0, n_counters);
    constexpr std::size_t kWindow = 512;
    std::size_t sent = 0, received = 0;
    while (received < n_counters) {
      while (sent < n_counters && sent - received < kWindow) {
        c.send_raw(increment_frame(kReqBase + sent, ids[sent]));
        ++sent;
      }
      (void)c.read_response();
      ++received;
    }
    server.Stop();  // crash-shaped: journal only, worst-case replay
  }

  // E17.a, journal path: restore = parse + re-open + re-apply N ops.
  double journal_ns = 0;
  {
    const auto t0 = Clock::now();
    ms::CounterServer server(e17_options());
    server.Start();
    journal_ns =
        std::chrono::duration<double, std::nano>(Clock::now() - t0).count();
    if (server.stats().restored_counters != n_counters) {
      throw std::runtime_error("E17: journal restore lost counters");
    }
    server.Drain();  // writes the compacted snapshot the next leg reads
  }

  // E17.a, snapshot path: restore = one sequential file read.
  double snapshot_ns = 0;
  {
    const auto t0 = Clock::now();
    ms::CounterServer server(e17_options());
    server.Start();
    snapshot_ns =
        std::chrono::duration<double, std::nano>(Clock::now() - t0).count();
    if (server.stats().restored_counters != n_counters) {
      throw std::runtime_error("E17: snapshot restore lost counters");
    }
    server.Stop();
  }

  const double journal_per = journal_ns / static_cast<double>(n_counters);
  const double snapshot_per = snapshot_ns / static_cast<double>(n_counters);
  TextTable recovery({"restore from", "counters", "total ms", "ns/counter"});
  char jms[32], sms[32];
  std::snprintf(jms, sizeof jms, "%.2f", journal_ns / 1e6);
  std::snprintf(sms, sizeof sms, "%.2f", snapshot_ns / 1e6);
  recovery.add_row({"journal replay", std::to_string(n_counters), jms,
                    std::to_string(static_cast<long>(journal_per))});
  recovery.add_row({"snapshot", std::to_string(n_counters), sms,
                    std::to_string(static_cast<long>(snapshot_per))});
  bench::print(recovery);
  g_json.record_levels("server_recovery", "journal-replay", 1, journal_per, 1,
                       n_counters);
  g_json.record_levels("server_recovery", "snapshot", 1, snapshot_per, 1,
                       n_counters);

  // E17.b: the retry storm.  Clients with retry enabled are cut off by
  // a crash-stop, spin their capped jittered backoff against a dead
  // socket path through a fixed downtime, then race to reconnect when
  // the restarted listener appears.  The row is the WORST client's
  // listener-up -> increment-acked time: the tail a fleet feels.
  const int kClients = 8;
  std::vector<ms::ServerClient> clients;
  std::vector<std::uint64_t> client_ids(kClients, 0);
  {
    ms::CounterServer server(e17_options());
    server.Start();
    ms::ClientOptions copts;
    copts.retry.enabled = true;
    copts.retry.backoff_initial = std::chrono::milliseconds(5);
    copts.retry.backoff_max = std::chrono::milliseconds(100);
    for (int i = 0; i < kClients; ++i) {
      clients.push_back(ms::ServerClient::connect_uds(sock_path(), copts));
      client_ids[i] =
          clients[i].open("e17/storm" + std::to_string(i)).id;
      clients[i].increment(client_ids[i]);
    }
    server.Stop();  // the crash
  }
  std::vector<double> done_ns(kClients, 0);
  std::atomic<bool> listener_up{false};
  Clock::time_point up_at{};
  std::vector<std::thread> storm;
  for (int i = 0; i < kClients; ++i) {
    storm.emplace_back([&, i] {
      clients[i].increment(client_ids[i]);  // blocks in recover()
      const auto now = Clock::now();
      if (!listener_up.load(std::memory_order_acquire)) {
        done_ns[i] = -1;  // acked before the restart?!
        return;
      }
      done_ns[i] =
          std::chrono::duration<double, std::nano>(now - up_at).count();
    });
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(50));  // downtime
  ms::CounterServer revived(e17_options());
  up_at = Clock::now();
  listener_up.store(true, std::memory_order_release);
  revived.Start();
  for (auto& t : storm) t.join();
  double worst = 0;
  for (const double d : done_ns) {
    if (d < 0) throw std::runtime_error("E17: increment acked with no server");
    worst = std::max(worst, d);
  }
  char wms[32];
  std::snprintf(wms, sizeof wms, "%.2f", worst / 1e6);
  TextTable stormt({"clients", "downtime ms", "worst reconnect ms"});
  stormt.add_row({std::to_string(kClients), "50", wms});
  bench::print(stormt);
  g_json.record_levels("server_retry_storm", "kill-restart", kClients, worst,
                       1, 0);
  clients.clear();
  revived.Stop();
  ::unlink(state_path().c_str());
  ::unlink((state_path() + ".journal").c_str());
}

}  // namespace
}  // namespace monotonic

int main(int argc, char** argv) {
  const auto opts = monotonic::bench::consume_common_flags(&argc, argv);
  monotonic::g_quick = opts.quick;
  monotonic::g_json = monotonic::bench::JsonlWriter(opts.json_path);
  monotonic::run_e16();
  monotonic::run_e17();
  return 0;
}

#endif  // _WIN32

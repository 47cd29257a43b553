// engine.cpp — engine_broadcast: the paper's §5.3 single-writer,
// many-reader broadcast on the library's default `Counter`, in
// process: no socket, no event loop, so the value plane, the wait
// index and the blocking policy's sleep/wake are all that is timed.
//
// One writer thread publishes item i into a ring slot and calls
// Increment(1); three reader threads call Check(i) for every i and
// verify the slot.  Legs of one run (all of them in 3 interleaved
// rounds):
//   setup x20      build a Counter and its threads and hand item 1 to
//                  every reader (setup_s: lower quartile of 60)
//   light / heavy  the writer follows a fixed item schedule, slow
//                  enough that readers park; an item's latency runs
//                  from its scheduled time to the last reader's return
//                  (p50/p99, light_p50/p99), a wake from scheduled time
//                  to each reader's return (wake_p50/p99, heavy legs)
//   closed         the writer increments flat out (sat_kops)
#include <sys/prctl.h>
#include <sys/syscall.h>
#include <time.h>
#include <unistd.h>

#include <sys/stat.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <cstring>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "monotonic/core/counter.hpp"
#include "monotonic/core/counter_error.hpp"
#include "monotonic/server/server.hpp"
#include "workloads.hpp"

namespace pb {
namespace {

constexpr int kReaders = 3;
// Item rates are constants.  The 10% / 50%-of-sat_kops rule the server
// workloads follow would put items ~2.5 us apart, where no reader ever
// sleeps; these gaps (100 us, 50 us) stay above the sleep/wake cost
// so readers park and are woken.  They also stay below ~200 us, where
// the reference VM's host stops polling a halted vCPU: past it a wake
// waits for the hypervisor to reschedule the vCPU (light_p50_us read
// 44 us at 400 us gaps, 13.5 us at 100 us) and flipped between the two
// modes from run to run.
constexpr double kLightRate = 10'000;
constexpr double kHeavyRate = 20'000;
constexpr std::size_t kRing = 1 << 16;
constexpr int kRounds = 3;
constexpr int kSetupsPerRound = 20;

std::uint64_t light_seed(std::uint64_t seed, int round) {
  return mix_seed(seed, 10 + static_cast<std::uint64_t>(round));
}
std::uint64_t heavy_seed(std::uint64_t seed, int round) {
  return mix_seed(seed, 20 + static_cast<std::uint64_t>(round));
}
std::uint64_t payload(std::uint64_t seed, std::uint64_t i) {
  Rng r(seed ^ (i * 0x9e3779b97f4a7c15ULL));
  return r.next() | 1;
}

pid_t gettid_() { return static_cast<pid_t>(::syscall(SYS_gettid)); }

void sleep_until(ns_t t) {
  // Sleep to ~30 us before the deadline, then spin: the schedule, not
  // the timer, sets when the writer publishes.
  const ns_t coarse = t - 30'000;
  if (now_ns() < coarse) {
    timespec ts{static_cast<time_t>(coarse / 1'000'000'000),
                static_cast<long>(coarse % 1'000'000'000)};
    while (::clock_nanosleep(CLOCK_MONOTONIC, TIMER_ABSTIME, &ts, nullptr) ==
           EINTR) {
    }
  }
  while (now_ns() < t) {
  }
}

struct alignas(64) Progress {
  std::atomic<std::uint64_t> done{0};
};

/// One broadcast: a fresh Counter, the ring, the threads.
struct Session {
  explicit Session(std::uint64_t s) : seed(s), ring(kRing) {}
  Session(const Session&) = delete;
  Session& operator=(const Session&) = delete;
  /// Normal paths join before this runs; on an exception path, poison
  /// the counter so parked readers and a lapping writer return, then
  /// join.
  ~Session() {
    if (threads.empty()) return;
    counter.Poison("session torn down");
    for (std::thread& t : threads) t.join();
  }

  std::uint64_t seed;
  monotonic::Counter counter;
  std::vector<std::uint64_t> ring;
  Progress progress[kReaders];
  std::atomic<std::uint64_t> end_items{0};
  std::atomic<std::uint64_t> bad_items{0};

  // Per-item times (open legs only), indexed by item - 1.
  bool record = false;
  std::vector<ns_t> sched;
  std::vector<ns_t> arrive[kReaders];
  std::vector<double> late_us;
  double reader_switches[kReaders] = {};
  SpanRecorder spans[kReaders + 1];

  std::vector<std::thread> threads;
};

void reader_main(Session& s, int r) {
  const double sw0 = read_task(::getpid(), gettid_()).voluntary_switches;
  SpanRecorder& spans = s.spans[r];
  try {
    for (std::uint64_t i = 1;; ++i) {
      const ns_t c0 = spans.enabled() ? now_ns() : 0;
      s.counter.Check(i);
      const ns_t t = now_ns();
      const std::uint64_t end = s.end_items.load(std::memory_order_acquire);
      if (end != 0 && i > end) break;
      if (s.ring[(i - 1) % kRing] != payload(s.seed, i)) {
        s.bad_items.fetch_add(1);
      }
      if (s.record) s.arrive[r][i - 1] = t;
      spans.add("core.check", c0, t, i, i);
      s.progress[r].done.store(i, std::memory_order_release);
    }
  } catch (const monotonic::CounterPoisonedError&) {
    // Torn down on an error path (~Session).
  }
  s.reader_switches[r] =
      read_task(::getpid(), gettid_()).voluntary_switches - sw0;
}

std::uint64_t min_progress(const Session& s) {
  std::uint64_t m = ~0ULL;
  for (const Progress& p : s.progress) {
    m = std::min(m, p.done.load(std::memory_order_acquire));
  }
  return m;
}

void publish(Session& s, std::uint64_t i) {
  if (i > kRing) {
    while (min_progress(s) + kRing < i && !s.counter.poisoned()) {
      std::this_thread::yield();
    }
  }
  s.ring[(i - 1) % kRing] = payload(s.seed, i);
  s.counter.Increment(1);
}

/// Sentinel: readers parked at end+1 wake, see end_items and stop.
void finish(Session& s, std::uint64_t items) {
  s.end_items.store(items, std::memory_order_release);
  s.counter.Increment(1);
}

/// Starts the readers, then the writer.  Readers need no start
/// signal: each parks in Check(1) until the writer publishes.
void start(Session& s, std::function<void(Session&)> writer) {
  for (int r = 0; r < kReaders; ++r) {
    s.threads.emplace_back([&s, r] { reader_main(s, r); });
  }
  s.threads.emplace_back([&s, writer] { writer(s); });
}

void join(Session& s) {
  for (std::thread& t : s.threads) t.join();
  s.threads.clear();
}

struct OpenLeg {
  std::vector<double> item_us, wake_us, late_us;
  double suspensions = 0, wakeups = 0, spurious_wakeups = 0;
  double reader_switches = 0;
  std::size_t items = 0;
  SpanRecorder spans;  // merged, traced legs only

  /// Pools another round of the same leg into this one.
  void absorb(const OpenLeg& o) {
    item_us.insert(item_us.end(), o.item_us.begin(), o.item_us.end());
    wake_us.insert(wake_us.end(), o.wake_us.begin(), o.wake_us.end());
    late_us.insert(late_us.end(), o.late_us.begin(), o.late_us.end());
    suspensions += o.suspensions;
    wakeups += o.wakeups;
    spurious_wakeups += o.spurious_wakeups;
    reader_switches += o.reader_switches;
    items += o.items;
  }
};

OpenLeg open_leg(std::uint64_t seed, double rate, double seconds, bool trace,
                 Result& res) {
  const std::size_t n = static_cast<std::size_t>(rate * seconds);
  auto s = std::make_unique<Session>(seed);
  s->record = true;
  s->sched.resize(n);
  for (auto& a : s->arrive) a.resize(n, 0);
  s->late_us.reserve(n);
  if (trace) {
    for (SpanRecorder& sp : s->spans) sp.enable(n);
  }
  start(*s, [n, rate](Session& x) {
    prctl(PR_SET_TIMERSLACK, 1UL, 0, 0, 0);
    const ns_t t0 = now_ns() + 1'000'000;
    for (std::size_t k = 0; k < n; ++k) {
      const ns_t due = t0 + static_cast<ns_t>(static_cast<double>(k) * 1e9 / rate);
      x.sched[k] = due;
      sleep_until(due);
      const ns_t i0 = now_ns();
      x.late_us.push_back(static_cast<double>(i0 - due) / 1e3);
      publish(x, k + 1);
      x.spans[kReaders].add("core.increment", i0, now_ns(), k + 1, k + 1);
    }
    finish(x, n);
  });
  join(*s);

  OpenLeg out;
  out.items = n;
  if (trace) out.spans.enable(n * (kReaders + 2));
  const std::size_t warm = n * 15 / 100;
  for (std::size_t k = warm; k < n; ++k) {
    ns_t last = 0;
    for (int r = 0; r < kReaders; ++r) {
      const ns_t t = s->arrive[r][k];
      last = std::max(last, t);
      out.wake_us.push_back(static_cast<double>(t - s->sched[k]) / 1e3);
    }
    out.item_us.push_back(static_cast<double>(last - s->sched[k]) / 1e3);
    out.spans.add("item", s->sched[k], last, k + 1);
  }
  out.late_us.assign(s->late_us.begin() + static_cast<std::ptrdiff_t>(warm),
                     s->late_us.end());
  const monotonic::CounterStatsSnapshot st = s->counter.stats();
  out.suspensions = static_cast<double>(st.suspensions);
  out.wakeups = static_cast<double>(st.wakeups);
  out.spurious_wakeups = static_cast<double>(st.spurious_wakeups);
  for (double sw : s->reader_switches) out.reader_switches += sw;
  if (s->bad_items.load() != 0) res.fail("reader saw a wrong item", s->bad_items.load());
  for (int r = 0; r < kReaders; ++r) {
    for (std::size_t k = 0; k < n; ++k) {
      if (s->arrive[r][k] == 0) {
        res.fail("reader missed an item");
        break;
      }
    }
  }
  res.attempted += n * kReaders;
  if (trace) {
    for (const SpanRecorder& sp : s->spans) {
      for (const Span& x : sp.spans()) {
        out.spans.add(x.name, x.start, x.end, x.id, x.parent);
      }
    }
  }
  return out;
}

struct ClosedLeg {
  double items = 0, seconds = 0;  // summed over rounds
  double checks = 0, fast_checks = 0;
};

void closed_leg(std::uint64_t seed, double seconds, ClosedLeg& out,
                Result& res) {
  auto s = std::make_unique<Session>(seed);
  std::atomic<std::uint64_t> published{0};
  const ns_t t0 = now_ns();
  start(*s, [&](Session& x) {
    const ns_t stop = now_ns() + static_cast<ns_t>(seconds * 1e9);
    std::uint64_t i = 0;
    while ((i & 255) != 0 || now_ns() < stop) publish(x, ++i);
    published.store(i);
    finish(x, i);
  });
  // Readers stop at the sentinel; the leg ends when the last reader
  // has seen the last item.
  join(*s);
  const std::uint64_t n = published.load();
  out.items += static_cast<double>(n);
  out.seconds += static_cast<double>(now_ns() - t0) / 1e9;
  const monotonic::CounterStatsSnapshot st = s->counter.stats();
  out.checks += static_cast<double>(st.checks);
  out.fast_checks += static_cast<double>(st.fast_checks);
  for (int r = 0; r < kReaders; ++r) {
    if (s->progress[r].done.load() != n) res.fail("reader stopped early");
  }
  if (s->bad_items.load() != 0) res.fail("reader saw a wrong item", s->bad_items.load());
  res.attempted += n * kReaders;
}

/// One set-up: a fresh Counter, ring and threads, until the last
/// reader has returned from Check(1).  Returns seconds.
double setup_once(std::uint64_t seed, Result& res) {
  const ns_t t0 = now_ns();
  auto s = std::make_unique<Session>(seed);
  s->record = true;
  for (auto& a : s->arrive) a.assign(1, 0);
  start(*s, [](Session& x) {
    publish(x, 1);
    finish(x, 1);
  });
  join(*s);
  ns_t last = 0;
  for (const auto& a : s->arrive) {
    if (a[0] == 0) res.fail("reader missed an item");
    last = std::max(last, a[0]);
  }
  if (s->bad_items.load() != 0) res.fail("reader saw a wrong item");
  res.attempted += kReaders;
  return static_cast<double>(last - t0) / 1e9;
}

}  // namespace

int engine_main(const RunArgs& a) {
  Result res;
  const double s = a.seconds;
  std::vector<double> setups;
  // Each leg runs in kRounds chunks interleaved through the run, so
  // every metric samples the host's state across the whole run.
  OpenLeg light, heavy, traced;
  ClosedLeg closed;
  for (int r = 0; r < kRounds; ++r) {
    for (int i = 0; i < kSetupsPerRound; ++i) {
      setups.push_back(setup_once(
          mix_seed(a.seed, 100 + static_cast<std::uint64_t>(r * kSetupsPerRound + i)),
          res));
    }
    light.absorb(open_leg(light_seed(a.seed, r), kLightRate, s * 0.3 / kRounds,
                          false, res));
    heavy.absorb(open_leg(heavy_seed(a.seed, r), kHeavyRate, s * 0.4 / kRounds,
                          false, res));
    closed_leg(mix_seed(a.seed, 30 + r), s * 0.3 / kRounds, closed, res);
  }
  if (a.trace) {
    traced = open_leg(mix_seed(a.seed, 40), kHeavyRate, s * 0.4 / kRounds, true,
                      res);
  }
  std::vector<double> setup_q = setups;
  info("setup samples %zu: min %.1fus p25 %.1fus p50 %.1fus", setup_q.size(),
       quantile(setup_q, 0) * 1e6, quantile(setup_q, 0.25) * 1e6,
       quantile(setup_q, 0.5) * 1e6);
  std::vector<double> light_late = light.late_us, heavy_late = heavy.late_us;
  const double late99 = quantile(heavy_late, 0.99);
  const double late50 = std::max(quantile(heavy_late, 0.5),
                                 quantile(light_late, 0.5));
  info("writer late_p50 %.1fus, late_p99 light %.1fus heavy %.1fus; "
       "items light %zu heavy %zu",
       late50, quantile(light_late, 0.99), late99, light.items, heavy.items);
  // Behind: the median item published a millisecond late.
  if (late50 > 1000) {
    res.fail("invalid leg: writer fell behind its schedule");
  }

  std::vector<double> item_l = light.item_us, item_h = heavy.item_us,
                      wake_h = heavy.wake_us;
  const double p50 = windowed_quantile(item_h, 0.5);
  if (!a.trace) {
    res.metric("setup_s", quantile(setups, 0.25), "s");
    res.metric("light_p50_us", windowed_quantile(item_l, 0.5), "us");
    res.metric("p50_us", p50, "us");
    res.metric("rss_mb", vmhwm_mb(::getpid()), "MiB");
    res.unbounded("sat_kops", closed.items / closed.seconds / 1e3, "kops/s");
    res.unbounded("wake_p50_us", windowed_quantile(wake_h, 0.5), "us");
    res.unbounded("light_p99_us", windowed_quantile(item_l, 0.99), "us");
    res.unbounded("p99_us", windowed_quantile(item_h, 0.99), "us");
    res.unbounded("wake_p99_us", windowed_quantile(wake_h, 0.99), "us");
    res.print();
    return 0;
  }

  const std::string scratch = a.work_dir + "/layer-" + std::to_string(::getpid());
  ::mkdir(scratch.c_str(), 0755);
  const StateFileTimes sf = time_state_file(scratch, 1, "");
  ::rmdir(scratch.c_str());
  const CoreTimes core = time_core(monotonic::server::ServerOptions{}.default_spec);
  const double hop_us =
      time_post_hop_us(monotonic::server::ServerOptions{}.executor_threads);

  const double reads = static_cast<double>(heavy.items) * kReaders;
  std::vector<double> inc_us, traced_items = traced.item_us;
  for (const Span& x : traced.spans.spans()) {
    if (std::strcmp(x.name, "core.increment") == 0) {
      inc_us.push_back(static_cast<double>(x.end - x.start) / 1e3);
    }
  }
  // No socket, loop or journal on this path: those layers do no work.
  for (const char* m : {"client.send_us_per_op", "client.recv_us_per_op",
                        "client.frames_per_send"}) {
    res.metric(m, 0, std::strstr(m, "frames") ? "count" : "us");
  }
  res.metric("gen.late_p99_us", late99, "us");
  res.metric("protocol.encode_ns", 0, "ns");
  res.metric("protocol.decode_ns", 0, "ns");
  res.metric("server.bytes_in_per_op", 0, "count");
  res.metric("server.bytes_out_per_op", 0, "count");
  res.metric("server.loop_cpu_us_per_op", 0, "us");
  res.metric("server.loop_ctx_switches_per_op", 0, "count");
  res.metric("server.requests_per_loop_wakeup", 0, "count");
  res.metric("server.increments_per_flush", 0, "count");
  res.metric("server.exec_cpu_us_per_wake", 0, "us");
  res.metric("server.parked_peak", 0, "count");
  res.metric("completion.post_hop_us", hop_us, "us");
  res.metric("core.increment_ns", core.increment_ns, "ns");
  res.metric("core.check_fast_ns", core.check_fast_ns, "ns");
  res.metric("core.onreach_arm_ns", core.onreach_arm_ns, "ns");
  res.metric("core.onreach_fire_ns", core.onreach_fire_ns, "ns");
  res.metric("core.suspensions_per_item",
             heavy.suspensions / reads, "count");
  res.metric("core.useful_wake_ratio",
             heavy.wakeups == 0
                 ? 0
                 : 1.0 - heavy.spurious_wakeups / heavy.wakeups,
             "ratio");
  res.metric("core.fast_check_share",
             closed.checks == 0 ? 0 : closed.fast_checks / closed.checks,
             "ratio");
  res.metric("core.reader_ctx_switches_per_item", heavy.reader_switches / reads,
             "count");
  res.metric("state_file.append_fsync_us", sf.append_fsync_us, "us");
  res.metric("state_file.snapshot_save_ms", sf.snapshot_save_ms, "ms");
  res.metric("state_file.restore_ms", sf.restore_ms, "ms");
  res.metric("ledger.residual_us",
             quantile(traced_items, 0.5) - quantile(inc_us, 0.5), "us");
  res.metric("trace.overhead_p50_us",
             windowed_quantile(traced_items, 0.5) - p50, "us");
  if (!a.trace_out.empty() &&
      !traced.spans.write_chrome_json(a.trace_out, 200'000)) {
    info("could not write %s", a.trace_out.c_str());
  }
  res.print();
  return 0;
}

std::uint64_t engine_opstream_hash(std::uint64_t seed, double seconds) {
  // The op stream here is the schedule and the payload of every item.
  std::uint64_t h = fnv1a("engine_broadcast", 16);
  for (int r = 0; r < kRounds; ++r) {
    const std::pair<std::uint64_t, double> legs[] = {
        {light_seed(seed, r), kLightRate * seconds * 0.3 / kRounds},
        {heavy_seed(seed, r), kHeavyRate * seconds * 0.4 / kRounds}};
    for (const auto& [leg_seed, items] : legs) {
      for (std::uint64_t i = 1; i <= static_cast<std::uint64_t>(items); ++i) {
        const std::uint64_t p = payload(leg_seed, i);
        h = fnv1a(&p, sizeof(p), h);
      }
    }
  }
  return h;
}

}  // namespace pb

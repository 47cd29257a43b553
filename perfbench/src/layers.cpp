// layers.cpp — per-layer probes for the traced run.  Each one calls a
// single layer's public functions directly, outside any load, so its
// time belongs to that layer alone.
#include <fcntl.h>
#include <unistd.h>

#include <atomic>
#include <string>
#include <thread>
#include <vector>

#include "monotonic/core/any_counter.hpp"
#include "monotonic/core/completion.hpp"
#include "monotonic/server/state_file.hpp"
#include "workloads.hpp"

namespace pb {

namespace ms = monotonic::server;

CoreTimes time_core(const std::string& spec) {
  constexpr int kLive = 16;
  constexpr int kBatch = 16;
  constexpr int kRounds = 2'000;
  constexpr int kReps = 5;
  constexpr std::uint64_t kFar = 1'000'000'000;
  std::vector<double> inc, check, arm, fire;
  std::uint64_t fired = 0;
  for (int rep = 0; rep < kReps; ++rep) {
    // 16 live levels far above the value: Increment and Check never
    // cross one, so they time the value plane with a populated index.
    auto c = monotonic::make_counter(spec);
    for (int k = 0; k < kLive; ++k) {
      c->OnReach(kFar + static_cast<std::uint64_t>(k), [] {});
    }
    const int n = kRounds * kBatch;
    ns_t t0 = now_ns();
    for (int i = 0; i < n; ++i) c->Increment(1);
    ns_t t1 = now_ns();
    for (int i = 0; i < n; ++i) c->Check(1);
    ns_t t2 = now_ns();
    inc.push_back(static_cast<double>(t1 - t0) / n);
    check.push_back(static_cast<double>(t2 - t1) / n);

    // Arm a batch of levels just above the value, then release them
    // one Increment each (inline completions, as the spec gives).
    double arm_ns = 0, fire_ns = 0;
    std::uint64_t v = c->value_lower_bound();
    for (int r = 0; r < kRounds; ++r) {
      const ns_t a0 = now_ns();
      for (int k = 1; k <= kBatch; ++k) {
        c->OnReach(v + static_cast<std::uint64_t>(k), [&fired] { ++fired; });
      }
      const ns_t a1 = now_ns();
      for (int k = 0; k < kBatch; ++k) c->Increment(1);
      const ns_t a2 = now_ns();
      arm_ns += static_cast<double>(a1 - a0);
      fire_ns += static_cast<double>(a2 - a1);
      v += kBatch;
    }
    arm.push_back(arm_ns / n);
    fire.push_back(fire_ns / n);
    c->Increment(kFar);  // release the far levels before destruction
  }
  if (fired != static_cast<std::uint64_t>(kReps) * kRounds * kBatch) {
    info("core probe: %llu of %d OnReach callbacks fired",
         static_cast<unsigned long long>(fired), kReps * kRounds * kBatch);
  }
  return {median(inc), median(check), median(arm), median(fire)};
}

double time_post_hop_us(std::size_t workers) {
  monotonic::ThreadPoolExecutor pool(workers);
  std::vector<double> hops;
  for (int i = 0; i < 2'000; ++i) {
    std::atomic<ns_t> ran{0};
    const ns_t t0 = now_ns();
    pool.post([&ran] { ran.store(now_ns(), std::memory_order_release); });
    ns_t t = 0;
    while ((t = ran.load(std::memory_order_acquire)) == 0) {
      std::this_thread::yield();
    }
    hops.push_back(static_cast<double>(t - t0) / 1e3);
    // Let the worker go back to sleep so every post pays the wake-up
    // a completion pays in the server.
    ::usleep(50);
  }
  return median(hops);
}

StateFileTimes time_state_file(const std::string& dir, std::size_t counters,
                               const std::string& restore_from) {
  StateFileTimes out;
  const std::string journal = dir + "/probe.journal";
  const std::string snap_path = dir + "/probe.snap";

  const int fd = ::open(journal.c_str(),
                        O_WRONLY | O_CREAT | O_TRUNC | O_APPEND | O_CLOEXEC,
                        0644);
  std::vector<double> appends;
  if (fd >= 0) {
    ms::detail::write_all(fd, ms::encode_journal_header(1));
    for (int i = 0; i < 100; ++i) {
      const ns_t t0 = now_ns();
      std::string buf;
      ms::append_journal_record(
          buf, ms::journal_increment_body(1 + static_cast<std::uint64_t>(i), 1,
                                          0, 0, 0));
      const bool ok = ms::detail::write_all(fd, buf) && ::fsync(fd) == 0;
      const ns_t t1 = now_ns();
      if (ok) appends.push_back(static_cast<double>(t1 - t0) / 1e3);
      out.increment_record_bytes = static_cast<double>(buf.size());
    }
    ::close(fd);
  }
  out.append_fsync_us = median(appends);

  ms::StateSnapshot snap;
  snap.epoch = 1;
  snap.generation = 1;
  snap.dedup_window = 4096;
  snap.counters.reserve(counters);
  for (std::size_t i = 0; i < counters; ++i) {
    std::string name = "c";
    name += std::to_string(i);
    snap.counters.push_back({i + 1, std::move(name), "", i, false, ""});
  }
  std::vector<double> saves;
  for (int i = 0; i < 3; ++i) {
    const ns_t t0 = now_ns();
    if (ms::save_snapshot(snap_path, snap)) {
      saves.push_back(static_cast<double>(now_ns() - t0) / 1e6);
    }
  }
  out.snapshot_save_ms = median(saves);

  const std::string from = restore_from.empty() ? snap_path : restore_from;
  std::vector<double> loads;
  for (int i = 0; i < 3; ++i) {
    const ns_t t0 = now_ns();
    ms::StateSnapshot loaded;
    std::vector<ms::JournalRecord> records;
    const bool have = ms::load_snapshot(from, loaded);
    ms::load_journal(from + ".journal", loaded.generation, records);
    if (have) loads.push_back(static_cast<double>(now_ns() - t0) / 1e6);
  }
  out.restore_ms = median(loads);
  ::unlink(journal.c_str());
  ::unlink(snap_path.c_str());
  return out;
}

}  // namespace pb

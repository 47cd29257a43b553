// common.hpp — shared pieces of the `pb` benchmark binary: clock,
// seeded RNG, percentiles, /proc readers, the in-memory span recorder
// and the result printer.  Nothing here calls into the library under
// test; every layer call lives in rpc.cpp / engine.cpp / layers.cpp.
#pragma once

#include <sys/types.h>
#include <time.h>

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace pb {

using ns_t = std::int64_t;

inline ns_t now_ns() {
  timespec ts{};
  ::clock_gettime(CLOCK_MONOTONIC, &ts);
  return static_cast<ns_t>(ts.tv_sec) * 1'000'000'000 + ts.tv_nsec;
}

/// SplitMix64: a fixed, portable generator, so one seed yields the
/// same op stream with every standard library (std:: distributions
/// are implementation-defined).
class Rng {
 public:
  explicit Rng(std::uint64_t seed) : s_(seed) {}
  std::uint64_t next() {
    std::uint64_t z = (s_ += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }
  /// Uniform in [0, n) (Lemire's multiply-shift; bias < 2^-32 for the
  /// ranges used here).
  std::uint64_t below(std::uint64_t n) {
    return static_cast<std::uint64_t>(
        (static_cast<unsigned __int128>(next()) * n) >> 64);
  }

 private:
  std::uint64_t s_;
};

/// Derives an independent stream seed from the run seed and a tag.
inline std::uint64_t mix_seed(std::uint64_t seed, std::uint64_t tag) {
  Rng r(seed * 0x100000001b3ULL ^ (tag + 0x632be59bd9b4e019ULL));
  r.next();
  return r.next();
}

/// FNV-1a over raw bytes, continued from `h`.
inline std::uint64_t fnv1a(const void* data, std::size_t n,
                           std::uint64_t h = 0xcbf29ce484222325ULL) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < n; ++i) {
    h ^= p[i];
    h *= 0x100000001b3ULL;
  }
  return h;
}

/// q-quantile (0..1) of `v` by nearest rank; reorders `v`.  0 when empty.
double quantile(std::vector<double>& v, double q);
double median(std::vector<double> v);

/// Splits `v` (in arrival order) into consecutive windows of 1000
/// samples (so a window's p99 has ten samples beyond it), takes the
/// q-quantile of each window and returns the lower quartile of those
/// window values: the figure for the calmer part of the run, since
/// the host's preemptions only ever add time.
double windowed_quantile(const std::vector<double>& v, double q);

// ---- /proc --------------------------------------------------------

struct TaskSample {
  double cpu_ns = 0;            ///< on-CPU time of the thread
  double voluntary_switches = 0;
};

/// CPU time (schedstat, else utime+stime) and voluntary context
/// switches of thread `tid` of process `pid`.
TaskSample read_task(pid_t pid, pid_t tid);
/// Peak resident set size (VmHWM) of `pid`, in MiB.
double vmhwm_mb(pid_t pid);
/// Thread ids of `pid`, ascending.
std::vector<pid_t> list_tasks(pid_t pid);

// ---- spans ----------------------------------------------------------

/// In-memory span store, written as Chrome/Perfetto trace JSON at the
/// end of a traced run.  `id` keys a request (its req_id); children
/// carry their parent's id in `parent`.
struct Span {
  const char* name;
  ns_t start;
  ns_t end;
  std::uint64_t id;
  std::uint64_t parent;
};

class SpanRecorder {
 public:
  bool enabled() const { return enabled_; }
  void enable(std::size_t reserve) {
    enabled_ = true;
    spans_.reserve(reserve);
  }
  void disable() { enabled_ = false; }
  void add(const char* name, ns_t start, ns_t end, std::uint64_t id,
           std::uint64_t parent = 0) {
    if (enabled_) spans_.push_back({name, start, end, id, parent});
  }
  const std::vector<Span>& spans() const { return spans_; }
  /// Writes at most `cap` spans (the earliest) as Chrome trace JSON.
  bool write_chrome_json(const std::string& path, std::size_t cap) const;

 private:
  bool enabled_ = false;
  std::vector<Span> spans_;
};

// ---- result --------------------------------------------------------

/// What one run prints.  Metrics print in insertion order as human
/// lines, then once more inside the final JSON line.
struct Result {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::pair<std::string, std::pair<double, std::string>>> metrics;
  std::vector<std::pair<std::string, std::pair<double, std::string>>> extra;

  void metric(const std::string& name, double value, const std::string& unit) {
    metrics.push_back({name, {value, unit}});
  }
  /// A figure printed for people but left out of the result line: one
  /// this host's preemptions make too unsteady to bound (see README.md,
  /// "Estimators"), or one only some workloads have.
  void unbounded(const std::string& name, double value, const std::string& unit) {
    extra.push_back({name, {value, unit}});
  }
  /// Records a failed check; every failure fails the run.
  void fail(const std::string& what, std::uint64_t count = 1);
  void print() const;
};

/// Free-form "info ..." line on stdout (host, legs, validity).
void info(const char* fmt, ...) __attribute__((format(printf, 1, 2)));

}  // namespace pb

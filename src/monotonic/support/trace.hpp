// trace.hpp — lightweight event tracing with Chrome-trace export.
//
// Answering "what did the synchronization actually do?" from timings
// alone is guesswork; the benches use aggregate stats, and this tracer
// covers the temporal dimension: per-thread ring buffers of timestamped
// events, merged on demand into the Chrome trace-event JSON format
// (load in chrome://tracing or https://ui.perfetto.dev).
//
// Design constraints:
//   * recording must be cheap and lock-free on the hot path — each
//     thread appends to its own fixed-size ring (oldest events are
//     overwritten; tracing is a lens, not a flight recorder);
//   * disabled tracing costs one relaxed atomic load;
//   * event names are `const char*` with static storage duration (no
//     ownership, no allocation on record).
//
// Span records user phases; record() marks single events.  The counters
// carry no tracer hooks: their stats() (core/counter_stats.hpp) count
// fast checks, suspensions and wakes.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "monotonic/support/config.hpp"

namespace monotonic {

enum class TraceEventKind : std::uint8_t {
  kIncrement,   ///< counter Increment (arg = amount)
  kCheckFast,   ///< Check satisfied without suspending (arg = level)
  kSuspend,     ///< Check parked (arg = level)
  kResume,      ///< parked Check woke (arg = level)
  kPoison,      ///< counter poisoned (arg unused)
  kCollapse,    ///< striped plane collapsed on an Increment (arg = amount)
  kCompletion,  ///< OnReach callback ran (arg = level)
  kSpanBegin,   ///< user phase begin
  kSpanEnd,     ///< user phase end
  kInstant,     ///< user marker
};

const char* to_string(TraceEventKind kind);

/// Collects events from any number of threads.  One instance per
/// tracing session; `Tracer::global()` is the conventional default.
class Tracer {
 public:
  /// Ring capacity per thread (events).
  explicit Tracer(std::size_t ring_capacity = 4096);
  ~Tracer();
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  /// Process-wide default instance (starts disabled).
  static Tracer& global();

  void enable() { enabled_.store(true, std::memory_order_release); }
  void disable() { enabled_.store(false, std::memory_order_release); }
  bool enabled() const {
    return enabled_.load(std::memory_order_acquire);
  }

  /// Records one event (no-op when disabled).  `name` must have static
  /// storage duration.
  void record(TraceEventKind kind, const char* name, std::uint64_t arg);

  /// RAII phase marker.
  class Span {
   public:
    Span(Tracer& tracer, const char* name)
        : tracer_(tracer), name_(name) {
      tracer_.record(TraceEventKind::kSpanBegin, name_, 0);
    }
    ~Span() { tracer_.record(TraceEventKind::kSpanEnd, name_, 0); }
    Span(const Span&) = delete;
    Span& operator=(const Span&) = delete;

   private:
    Tracer& tracer_;
    const char* name_;
  };

  /// One recorded event, with a stable thread index.
  struct Event {
    std::uint64_t timestamp_ns;  ///< steady-clock, process-relative
    std::uint32_t thread;
    TraceEventKind kind;
    const char* name;
    std::uint64_t arg;
  };

  /// All retained events, timestamp-sorted.  Takes the registry lock;
  /// call from quiescent points (end of run), not hot paths.
  std::vector<Event> events() const;

  /// Chrome trace-event JSON (the "traceEvents" array format).
  std::string to_chrome_json() const;

  /// Drops all retained events (threads keep their rings).
  void clear();

  std::size_t ring_capacity() const noexcept { return ring_capacity_; }

 private:
  struct Ring;
  Ring& ring_for_this_thread();
  static std::uint64_t next_tracer_id() noexcept;

  const std::size_t ring_capacity_;
  // Process-unique id: per-thread ring caches key on it, so a Tracer
  // constructed at a reused stack/heap address can never resolve to a
  // destroyed predecessor's ring.
  const std::uint64_t tracer_id_ = next_tracer_id();
  std::atomic<bool> enabled_{false};
  mutable std::mutex registry_m_;
  std::vector<std::unique_ptr<Ring>> rings_;
  std::uint64_t epoch_ns_;  // construction time; timestamps are relative
};

}  // namespace monotonic

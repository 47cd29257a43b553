// batching_counter.hpp — per-thread increment batching.
//
// The one batching dial: §5.3's blocked writer generalized into a
// counter front-end.  A BatchingIncrementer accumulates one producer's
// increments locally and pushes them to the shared counter once
// `batch_size` units have accrued (or on flush()/destruction).  Readers
// observe the counter rising in batch steps — coarser dataflow
// granularity for cheaper synchronization, the same dial as §5.3's
// blockSize but reusable with ANY counter consumer, not just
// BroadcastChannel.
//
// Semantics note: batching *delays* visibility (value lags the logical
// total by < batch_size until flushed) but preserves monotonicity and
// therefore all of §6's determinism machinery — a Check still can't
// observe a value that later decreases.  The buffer belongs to its
// producer, which alone decides when to flush; the counter itself
// buffers nothing, so an Increment releases every level it reaches.
#pragma once

#include "monotonic/core/counter.hpp"
#include "monotonic/core/counter_concept.hpp"
#include "monotonic/support/assert.hpp"
#include "monotonic/support/config.hpp"

namespace monotonic {

/// Thread-local batching front-end for a shared counter.  NOT
/// thread-safe itself: one incrementer per producing thread.
template <CounterLike C = Counter>
class BatchingIncrementer {
 public:
  /// Batches `batch_size` units before each push to `counter`.
  BatchingIncrementer(C& counter, counter_value_t batch_size)
      : counter_(counter), batch_(batch_size) {
    MC_REQUIRE(batch_size >= 1, "batch size must be positive");
  }
  BatchingIncrementer(const BatchingIncrementer&) = delete;
  BatchingIncrementer& operator=(const BatchingIncrementer&) = delete;

  /// Flushes any buffered amount on destruction, so no increment is
  /// ever lost on the orderly path (mirrors BroadcastChannel::Writer).
  ///
  /// The flush is guarded: destructors are implicitly noexcept, and an
  /// incrementer routinely dies during stack unwinding — often from
  /// the very exception that just poisoned the underlying counter.  A
  /// BasicCounter absorbs post-poison increments as counted drops, but
  /// a CounterLike is any counter (AnyHandle, user types), and its
  /// Increment may throw (overflow MC_REQUIRE, a poisoned adapter that
  /// rethrows, ...).  Letting that escape here
  /// would std::terminate the process mid-unwind, so the destructor
  /// swallows the failure and records the loss in dropped() instead.
  ~BatchingIncrementer() {
    try {
      flush();
    } catch (...) {
      dropped_ += pending_;
      pending_ = 0;
    }
  }

  void Increment(counter_value_t amount = 1) {
    pending_ += amount;
    if (pending_ >= batch_) flush();
  }

  /// Pushes the buffered amount immediately.  Unlike the destructor
  /// this propagates any exception from the underlying counter — a
  /// live caller can handle it (and the amount stays pending, so a
  /// later flush may still deliver it).
  void flush() {
    if (pending_ > 0) {
      counter_.Increment(pending_);
      pending_ = 0;
    }
  }

  counter_value_t pending() const noexcept { return pending_; }

  /// Units abandoned because a destructor-time flush threw.  (Drops
  /// absorbed by a poisoned BasicCounter are not counted here — the
  /// counter's own stats().dropped_increments records those.)
  counter_value_t dropped() const noexcept { return dropped_; }

 private:
  C& counter_;
  const counter_value_t batch_;
  counter_value_t pending_ = 0;
  counter_value_t dropped_ = 0;
};

}  // namespace monotonic

#include "monotonic/sync/barrier.hpp"

#include "monotonic/support/assert.hpp"

namespace monotonic {

CentralBarrier::CentralBarrier(std::size_t parties) : parties_(parties) {
  MC_REQUIRE(parties >= 1, "barrier needs at least one party");
}

void CentralBarrier::Pass() {
  std::unique_lock lock(m_);
  const bool my_sense = sense_;
  if (++arrived_ == parties_) {
    arrived_ = 0;
    sense_ = !sense_;
    ++rounds_;
    lock.unlock();
    cv_.notify_all();
    return;
  }
  ++suspensions_;
  cv_.wait(lock, [&] { return sense_ != my_sense; });
}

std::uint64_t CentralBarrier::stat_rounds() const {
  std::scoped_lock lock(m_);
  return rounds_;
}

std::uint64_t CentralBarrier::stat_suspensions() const {
  std::scoped_lock lock(m_);
  return suspensions_;
}

AtomicBarrier::AtomicBarrier(std::size_t parties) : parties_(parties) {
  MC_REQUIRE(parties >= 1, "barrier needs at least one party");
}

void AtomicBarrier::Pass() {
  const bool my_sense = sense_.load(std::memory_order_relaxed);
  if (arrived_.fetch_add(1, std::memory_order_acq_rel) + 1 == parties_) {
    arrived_.store(0, std::memory_order_relaxed);
    rounds_.fetch_add(1, std::memory_order_relaxed);
    sense_.store(!my_sense, std::memory_order_release);
    return;
  }
  SpinBackoff spinner;
  while (sense_.load(std::memory_order_acquire) == my_sense) spinner.once();
}

TreeBarrier::TreeBarrier(std::size_t parties) : parties_(parties) {
  MC_REQUIRE(parties >= 1, "barrier needs at least one party");
  // Build a complete binary tree with `parties` leaves (heap layout).
  // Internal nodes expect arrivals from each child subtree plus, at the
  // root path, the owning slot.  We implement the simpler "tournament of
  // two-party barriers" scheme: node count = parties - 1; leaf slot s
  // enters at node (s + parties - 1)'s parent chain.
  const std::size_t internal = parties_ > 1 ? parties_ - 1 : 1;
  nodes_.reserve(internal);
  for (std::size_t i = 0; i < internal; ++i) {
    nodes_.push_back(std::make_unique<Node>());
  }
  // Heap layout over `internal` nodes with `parties` leaves appended:
  // total heap size = internal + parties; leaf j lives at internal + j.
  // Each existing child (internal node or leaf) delivers exactly one
  // arrival per round: leaves arrive directly, an internal child's last
  // arriver carries its subtree's arrival upward.
  const std::size_t heap_size = internal + parties_;
  for (std::size_t i = 0; i < internal; ++i) {
    std::size_t expected = 0;
    if (2 * i + 1 < heap_size) ++expected;
    if (2 * i + 2 < heap_size) ++expected;
    nodes_[i]->expected = expected;
  }
}

void TreeBarrier::pass_node(std::size_t node_index) {
  Node& node = *nodes_[node_index];
  std::unique_lock lock(node.m);
  const bool my_sense = node.sense;
  if (++node.arrived == node.expected) {
    node.arrived = 0;
    // Last arrival at a non-root node proceeds to the parent before
    // releasing its siblings, so release only happens after the whole
    // tree has combined.
    if (node_index > 0) {
      lock.unlock();
      pass_node((node_index - 1) / 2);
      lock.lock();
    }
    node.sense = !my_sense;
    lock.unlock();
    node.cv.notify_all();
    return;
  }
  node.cv.wait(lock, [&] { return node.sense != my_sense; });
}

void TreeBarrier::Pass(std::size_t slot) {
  MC_REQUIRE(slot < parties_, "slot out of range");
  if (parties_ == 1) return;
  const std::size_t internal = parties_ - 1;
  const std::size_t heap_pos = internal + slot;
  pass_node((heap_pos - 1) / 2);
}

}  // namespace monotonic

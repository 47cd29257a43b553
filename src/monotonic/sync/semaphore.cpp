#include "monotonic/sync/semaphore.hpp"

namespace monotonic {

void Semaphore::acquire(std::uint64_t n) {
  std::unique_lock lock(m_);
  if (permits_ < n) ++suspensions_;
  cv_.wait(lock, [&] { return permits_ >= n; });
  permits_ -= n;
}

bool Semaphore::try_acquire(std::uint64_t n) {
  std::scoped_lock lock(m_);
  if (permits_ < n) return false;
  permits_ -= n;
  return true;
}

void Semaphore::release(std::uint64_t n) {
  {
    std::scoped_lock lock(m_);
    permits_ += n;
  }
  // notify_all rather than notify_one: an n-ary waiter may be eligible
  // even when the front waiter is not, and wakeup storms are part of
  // what the queue-census experiment measures.
  cv_.notify_all();
}

std::uint64_t Semaphore::debug_permits() const {
  std::scoped_lock lock(m_);
  return permits_;
}

std::uint64_t Semaphore::stat_suspensions() const {
  std::scoped_lock lock(m_);
  return suspensions_;
}

}  // namespace monotonic

#include "monotonic/sync/event.hpp"

namespace monotonic {

void Condition::Set() {
  {
    std::scoped_lock lock(m_);
    if (set_) return;
    set_ = true;
  }
  cv_.notify_all();
}

void Condition::Check() {
  std::unique_lock lock(m_);
  if (set_) return;
  ++suspensions_;
  cv_.wait(lock, [this] { return set_; });
}

bool Condition::debug_is_set() const {
  std::scoped_lock lock(m_);
  return set_;
}

std::uint64_t Condition::stat_suspensions() const noexcept {
  std::scoped_lock lock(m_);
  return suspensions_;
}

}  // namespace monotonic

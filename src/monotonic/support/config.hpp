// config.hpp — library-wide configuration and version information.
//
// Part of libmonotonic, a reproduction of:
//   John Thornley and K. Mani Chandy,
//   "Monotonic Counters: A New Mechanism for Thread Synchronization",
//   IPPS 2000.
#pragma once

#include <cstdint>

namespace monotonic {

/// Library semantic version.
struct Version {
  int major;
  int minor;
  int patch;
};

/// Returns the version of libmonotonic this translation unit was built
/// against.
constexpr Version version() noexcept { return Version{1, 0, 0}; }

/// Counter values are unsigned 64-bit throughout.  The paper uses
/// `unsigned int`; we widen it so overflow is a non-issue for any
/// realistic program (2^64 increments of 1 at 1ns each is ~580 years).
using counter_value_t = std::uint64_t;

}  // namespace monotonic

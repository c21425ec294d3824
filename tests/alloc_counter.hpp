// Counts heap allocations: linking alloc_counter.cpp into a binary replaces
// the global operator new (the plain, array and nothrow forms) with a
// counting one over malloc, and the matching operator delete forms with
// free. The over-aligned forms keep the library's own pair and are not
// counted.
#pragma once

#include <cstdint>

namespace tedge::testkit {

/// Calls of the counting operator new since the program started.
[[nodiscard]] std::uint64_t allocations();

} // namespace tedge::testkit

// Heap allocations of a periodic re-arm: Simulation::schedule_periodic
// builds the callback's shared state once, and each tick re-arms with a
// pointer to it, so a tick after the first allocates nothing -- even when
// the callback's captures are too large for std::function's inline buffer.
#include <gtest/gtest.h>

#include <array>
#include <cstdint>

#include "alloc_counter.hpp"
#include "simcore/simulation.hpp"

namespace tedge {
namespace {

TEST(PeriodicAllocations, TicksAfterTheFirstAllocateNothing) {
    sim::Simulation simulation;
    std::array<std::uint64_t, 8> payload{};  // 64 bytes: heap-held by std::function
    std::uint64_t ticks = 0;
    std::uint64_t after_first = 0;
    auto handle = simulation.schedule_periodic(sim::seconds(1), [&, payload] {
        if (++ticks == 1) after_first = testkit::allocations();
        ASSERT_EQ(payload[0], 0u);
    });
    simulation.run_until(sim::seconds(1000));
    const std::uint64_t allocated = testkit::allocations() - after_first;
    EXPECT_EQ(ticks, 1000u);
    EXPECT_EQ(allocated, 0u) << allocated << " allocations over " << ticks - 1
                             << " ticks after the first";

    // Cancelling stops the re-arm: the next firing is the last one scheduled.
    handle.cancel();
    EXPECT_FALSE(handle.active());
    simulation.run_until(sim::seconds(1010));
    EXPECT_EQ(ticks, 1000u);
    EXPECT_FALSE(simulation.has_pending_events());
}

TEST(PeriodicAllocations, DaemonTicksAllocateNothingEither) {
    sim::Simulation simulation;
    std::uint64_t ticks = 0;
    std::uint64_t after_first = 0;
    simulation.schedule_periodic(
        sim::milliseconds(20),
        [&] {
            if (++ticks == 1) after_first = testkit::allocations();
        },
        /*daemon=*/true);
    // A user event keeps run() alive for 499 daemon ticks; the one due with
    // it at 10 s was scheduled after it, so run() returns first.
    simulation.schedule(sim::seconds(10), [] {});
    simulation.run();
    const std::uint64_t allocated = testkit::allocations() - after_first;
    EXPECT_EQ(ticks, 499u);
    EXPECT_EQ(allocated, 0u);
}

} // namespace
} // namespace tedge

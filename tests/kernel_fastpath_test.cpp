// Regression tests for the fast-path kernel rework: slab event queue
// determinism, generation-checked handles across slot reuse, a randomized
// differential of the queue against an ordered-map oracle, events built and
// run in their slot (stable slots, throwing callbacks, allocation-free
// scheduling), the flow-table exact-match index vs. the reference scan, and
// the predicate-driven drain API.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <random>
#include <string>
#include <utility>
#include <vector>

#include "alloc_counter.hpp"
#include "net/flow_table.hpp"
#include "simcore/event_queue.hpp"
#include "simcore/random.hpp"
#include "simcore/simulation.hpp"

namespace {

using namespace tedge;
using sim::EventQueue;
using sim::SimTime;
using sim::Simulation;

// ---------------------------------------------------------------------------
// Determinism: the same schedule must execute in the same order and report
// the same total_scheduled(), run after run -- slot reuse, cancellations and
// daemon events included.

struct ScheduleRun {
    std::vector<int> order;
    std::uint64_t total_scheduled = 0;
    std::uint64_t executed = 0;
    SimTime end_time;
};

ScheduleRun run_reference_schedule() {
    ScheduleRun run;
    Simulation simulation;
    sim::Rng rng(42);
    std::vector<sim::EventHandle> handles;
    for (int i = 0; i < 500; ++i) {
        // Coarse timestamps on purpose: plenty of same-instant events so the
        // FIFO tie-break is exercised, not just timestamp ordering.
        const auto at = sim::milliseconds(rng.uniform_int(0, 50));
        handles.push_back(simulation.schedule_at(
            at, [&run, i, &simulation, &rng] {
                run.order.push_back(i);
                if (i % 7 == 0) {
                    simulation.schedule(
                        sim::milliseconds(rng.uniform_int(1, 10)),
                        [&run, i] { run.order.push_back(1000 + i); });
                }
            },
            /*daemon=*/i % 11 == 0));
    }
    // Deterministic cancellations, some of events that already fired.
    for (int i = 0; i < 500; i += 13) handles[static_cast<std::size_t>(i)].cancel();
    simulation.run();
    run.total_scheduled = simulation.total_scheduled();
    run.executed = simulation.events_executed();
    run.end_time = simulation.now();
    return run;
}

TEST(KernelFastPath, IdenticalSchedulesExecuteIdentically) {
    const ScheduleRun a = run_reference_schedule();
    const ScheduleRun b = run_reference_schedule();
    EXPECT_EQ(a.order, b.order);
    EXPECT_EQ(a.total_scheduled, b.total_scheduled);
    EXPECT_EQ(a.executed, b.executed);
    EXPECT_EQ(a.end_time, b.end_time);
    EXPECT_FALSE(a.order.empty());
}

TEST(KernelFastPath, SameInstantEventsRunInScheduleOrderAcrossSlotReuse) {
    EventQueue queue;
    // Fill and drain so later pushes recycle slots in free-list (LIFO) order,
    // scrambling the slot-id <-> schedule-order correspondence.
    for (int i = 0; i < 8; ++i) queue.push(sim::seconds(1), [] {});
    while (!queue.empty()) queue.pop();

    std::vector<int> fired;
    for (int i = 0; i < 8; ++i) {
        queue.push(sim::seconds(2), [&fired, i] { fired.push_back(i); });
    }
    while (!queue.empty()) queue.pop().second();
    EXPECT_EQ(fired, (std::vector<int>{0, 1, 2, 3, 4, 5, 6, 7}));
}

// ---------------------------------------------------------------------------
// Generation safety: a handle kept after its event fired must not be able to
// cancel (or observe) the slot's next tenant.

TEST(KernelFastPath, StaleHandleCannotCancelReusedSlot) {
    EventQueue queue;
    bool first_fired = false;
    auto stale = queue.push(sim::seconds(1), [&first_fired] { first_fired = true; });
    queue.pop().second();
    EXPECT_TRUE(first_fired);
    EXPECT_FALSE(stale.pending());

    // The freed slot is recycled by the next push.
    bool second_fired = false;
    auto fresh = queue.push(sim::seconds(2), [&second_fired] { second_fired = true; });
    stale.cancel(); // must be a no-op: the generation no longer matches
    EXPECT_FALSE(stale.pending());
    EXPECT_TRUE(fresh.pending());
    ASSERT_FALSE(queue.empty());
    queue.pop().second();
    EXPECT_TRUE(second_fired);
}

TEST(KernelFastPath, StaleHandleAfterCancellationCannotCancelReusedSlot) {
    EventQueue queue;
    auto stale = queue.push(sim::seconds(1), [] { FAIL() << "cancelled event fired"; });
    stale.cancel();
    EXPECT_TRUE(queue.empty());

    // Cancelled tombstones surface lazily; pushing now may reuse the slot
    // only after the tombstone is collected, so drain first via next_time().
    bool fired = false;
    queue.push(sim::seconds(2), [&fired] { fired = true; });
    stale.cancel(); // no-op either way
    while (!queue.empty()) queue.pop().second();
    EXPECT_TRUE(fired);
}

// ---------------------------------------------------------------------------
// Randomized differential: a seeded push/cancel/pop workload checked after
// every step against a std::map keyed by (timestamp, insertion order) -- the
// queue's ordering contract as the plainest possible container -- on pop
// order, size(), has_user_events(), next_is_daemon() and next_time().

using OracleKey = std::pair<std::int64_t, std::uint64_t>; ///< (at, insertion order)

/// An EventQueue and its oracle (key -> daemon flag), driven in lockstep.
/// Callbacks capture `this`, so a run must stay where it was constructed.
struct OracleRun {
    EventQueue queue;
    std::map<OracleKey, bool> oracle;
    std::vector<std::pair<sim::EventHandle, OracleKey>> handles;
    std::uint64_t pushed = 0;
    std::uint64_t fired = 0; ///< insertion order of the last callback run
    std::int64_t now = 0;

    void push(std::int64_t at, bool daemon) {
        const OracleKey key{at, pushed++};
        handles.emplace_back(
            queue.push(SimTime{at}, [this, key] { fired = key.second; }, daemon),
            key);
        oracle.emplace(key, daemon);
    }

    void cancel(std::size_t index) {
        auto& [handle, key] = handles[index];
        ASSERT_EQ(handle.pending(), oracle.count(key) == 1);
        handle.cancel(); // a no-op once the event fired or was cancelled
        oracle.erase(key);
    }

    /// Runs the earliest event through the production path, run_next().
    void pop() {
        SimTime at;
        queue.run_next(at);
        const auto expected = oracle.begin();
        ASSERT_EQ(at.ns(), expected->first.first);
        ASSERT_EQ(fired, expected->first.second);
        oracle.erase(expected);
        now = at.ns();
    }

    /// next_is_daemon() is peeked before next_time(): next_time() discards
    /// cancelled tombstones that have surfaced, so peeking it first would
    /// hide a next_is_daemon() that reads a cancelled minimum.
    void check() const {
        ASSERT_EQ(queue.size(), oracle.size());
        ASSERT_EQ(queue.has_user_events(),
                  std::any_of(oracle.begin(), oracle.end(),
                              [](const auto& event) { return !event.second; }));
        if (oracle.empty()) return;
        ASSERT_EQ(queue.next_is_daemon(), oracle.begin()->second);
        ASSERT_EQ(queue.next_time().ns(), oracle.begin()->first.first);
    }
};

TEST(KernelFastPath, RandomizedQueueMatchesOrderedMapOracle) {
    for (const std::uint32_t seed : {1u, 7u, 42u, 1234u, 99999u}) {
        SCOPED_TRACE("seed " + std::to_string(seed));
        std::mt19937 rng(seed);
        // Delays mix five magnitudes, from same-instant pile-ups to ~17
        // simulated minutes.
        const auto random_delay = [&rng]() -> std::int64_t {
            switch (rng() % 5) {
                case 0: return 0;
                case 1: return static_cast<std::int64_t>(rng() % 64);
                case 2: return static_cast<std::int64_t>(rng() % 4096) * 250;
                case 3: return static_cast<std::int64_t>(rng() % 1024) * 1'000'000;
                default:
                    return static_cast<std::int64_t>(rng() % 1024) * 1'000'000'000;
            }
        };
        OracleRun run;
        for (int round = 0; round < 300; ++round) {
            for (std::size_t pushes = rng() % 8; pushes > 0; --pushes) {
                const bool daemon = rng() % 4 == 0;
                run.push(run.now + random_delay(), daemon);
                ASSERT_NO_FATAL_FAILURE(run.check());
            }
            for (std::size_t cancels = rng() % 3;
                 cancels > 0 && !run.handles.empty(); --cancels) {
                ASSERT_NO_FATAL_FAILURE(run.cancel(rng() % run.handles.size()));
                ASSERT_NO_FATAL_FAILURE(run.check());
            }
            for (std::size_t pops = rng() % 6; pops > 0 && !run.queue.empty();
                 --pops) {
                ASSERT_NO_FATAL_FAILURE(run.pop());
                ASSERT_NO_FATAL_FAILURE(run.check());
            }
        }
        while (!run.queue.empty()) {
            ASSERT_NO_FATAL_FAILURE(run.pop());
            ASSERT_NO_FATAL_FAILURE(run.check());
        }
        EXPECT_TRUE(run.oracle.empty());
    }
}

// ---------------------------------------------------------------------------
// Events built and run in their slot.

// A running callback grows the slab by several chunks, then reads its own
// captures: slots must not move while a callback runs (under ASan a slab
// that relocates its slots fails here with a use after free).
TEST(KernelInSlot, CallbackSchedulingManyEventsKeepsItsCaptures) {
    Simulation simulation;
    std::uint64_t sum = 0;
    int ran = 0;
    const std::array<std::uint64_t, 4> marks = {0x1111, 0x2222, 0x3333, 0x4444};
    simulation.schedule(sim::seconds(1), [&simulation, &sum, marks] {
        for (int i = 0; i < 5000; ++i) {
            simulation.schedule(sim::milliseconds(1 + i % 7), [&sum] { ++sum; });
        }
        for (const std::uint64_t mark : marks) sum += mark;
    });
    simulation.schedule(sim::seconds(2), [&ran] { ++ran; });
    simulation.run();
    EXPECT_EQ(sum, 5000u + 0x1111 + 0x2222 + 0x3333 + 0x4444);
    EXPECT_EQ(ran, 1);
    EXPECT_EQ(simulation.events_executed(), 5002u);
}

struct Boom {};

// A callback that throws: the exception leaves run(), the live counts stay
// consistent, the callback's captures are released, later events still run,
// and its slot is reused (10,000 throws allocate nothing).
TEST(KernelInSlot, ThrowingCallbackFreesItsSlot) {
    Simulation simulation;
    auto capture = std::make_shared<int>(0);
    int later = 0;
    const auto thrower = simulation.schedule(sim::seconds(1), [capture] { throw Boom{}; });
    simulation.schedule(sim::seconds(2), [&later] { ++later; });
    simulation.schedule(sim::seconds(3), [] {}, /*daemon=*/true);
    EXPECT_EQ(capture.use_count(), 2);
    EXPECT_THROW(simulation.run(), Boom);
    EXPECT_EQ(simulation.now(), sim::seconds(1));
    EXPECT_EQ(capture.use_count(), 1); // destroyed with its slot
    EXPECT_FALSE(thrower.pending());
    EXPECT_TRUE(simulation.has_user_events());
    EXPECT_TRUE(simulation.has_pending_events());
    EXPECT_EQ(simulation.events_executed(), 0u);
    simulation.run();
    EXPECT_EQ(later, 1);
    EXPECT_FALSE(simulation.has_user_events());

    EventQueue queue;
    SimTime clock;
    const auto throw_once = [&] {
        queue.push(sim::seconds(1), [] { throw Boom{}; });
        EXPECT_THROW(queue.run_next(clock), Boom);
    };
    throw_once(); // warm-up: the first chunk
    const std::uint64_t before = testkit::allocations();
    for (int i = 0; i < 10'000; ++i) throw_once();
    EXPECT_EQ(testkit::allocations() - before, 0u);
    EXPECT_TRUE(queue.empty());
    EXPECT_FALSE(queue.has_user_events());
}

// Inside its own callback an event is no longer pending, and cancelling it
// changes nothing.
TEST(KernelInSlot, HandleInsideOwnCallbackIsNotPending) {
    EventQueue queue;
    sim::EventHandle self;
    bool checked = false;
    int other_ran = 0;
    self = queue.push(sim::seconds(1), [&] {
        EXPECT_FALSE(self.pending());
        self.cancel();
        EXPECT_EQ(queue.size(), 1u);
        EXPECT_TRUE(queue.has_user_events());
        checked = true;
    });
    const auto other = queue.push(sim::seconds(2), [&other_ran] { ++other_ran; });
    EXPECT_TRUE(self.pending());
    SimTime clock;
    queue.run_next(clock);
    EXPECT_TRUE(checked);
    EXPECT_EQ(clock, sim::seconds(1));
    EXPECT_TRUE(other.pending());
    EXPECT_EQ(queue.size(), 1u);
    queue.run_next(clock);
    EXPECT_EQ(other_ran, 1);
    EXPECT_TRUE(queue.empty());
}

// Scheduling a 48-byte lambda allocates nothing once the slab is warm:
// through schedule(), through schedule_at(), and from a running callback.
TEST(KernelInSlot, InlineLambdaSchedulingAllocatesNothingAfterWarmUp) {
    Simulation simulation;
    std::uint64_t sum = 0;
    const std::array<std::uint64_t, 5> payload = {1, 2, 3, 4, 5};
    const auto event = [&sum, payload] { sum += payload[0]; };
    static_assert(sizeof(event) == 48);
    const auto via_schedule = [&] {
        for (int i = 0; i < 1000; ++i) simulation.schedule(sim::microseconds(i), event);
        simulation.run();
    };
    const auto via_schedule_at = [&] {
        for (int i = 0; i < 1000; ++i) {
            simulation.schedule_at(simulation.now() + sim::microseconds(i), event);
        }
        simulation.run();
    };
    const auto nested = [&] {
        for (int i = 0; i < 100; ++i) {
            simulation.schedule(sim::microseconds(i), [&simulation, &event] {
                for (int j = 0; j < 10; ++j) simulation.schedule(sim::microseconds(j), event);
            });
        }
        simulation.run();
    };
    const auto allocations_of = [](const auto& round) {
        round(); // warm-up: slab chunks and heap array reach their size
        const std::uint64_t before = testkit::allocations();
        round();
        return testkit::allocations() - before;
    };
    EXPECT_EQ(allocations_of(via_schedule), 0u);
    EXPECT_EQ(allocations_of(via_schedule_at), 0u);
    EXPECT_EQ(allocations_of(nested), 0u);
    EXPECT_EQ(sum, 6000u);
}

// ---------------------------------------------------------------------------
// Peeks, cancelled minima, distant timestamps and pre-sizing.

TEST(KernelFastPath, PushEarlierThanPeekedMinimum) {
    // run_until consults next_time(), stops short of it, and later events may
    // be pushed *below* the pending minimum.
    Simulation simulation;
    std::vector<int> order;
    simulation.schedule_at(sim::seconds(10), [&] { order.push_back(1); });
    simulation.run_until(sim::seconds(1)); // peeks 10s, stops at 1s
    EXPECT_EQ(simulation.now(), sim::seconds(1));
    simulation.schedule_at(sim::seconds(2), [&] { order.push_back(0); });
    simulation.run();
    EXPECT_EQ(order, (std::vector<int>{0, 1}));
    EXPECT_EQ(simulation.now(), sim::seconds(10));
}

TEST(KernelFastPath, CancelledMinimumIsSkippedByNextTime) {
    EventQueue queue;
    auto first = queue.push(sim::seconds(1), [] {});
    queue.push(sim::seconds(2), [] {});
    EXPECT_EQ(queue.next_time(), sim::seconds(1));
    first.cancel();
    EXPECT_EQ(queue.next_time(), sim::seconds(2));
    EXPECT_EQ(queue.pop().first, sim::seconds(2));
}

TEST(KernelFastPath, DistantTimersAcrossManyLevels) {
    // Timestamps spanning 1 ns to ~11.5 days, pushed in shuffled order.
    EventQueue queue;
    std::vector<std::int64_t> ats;
    std::int64_t at = 1;
    while (at < 1'000'000'000'000'000) { // 10^15 ns
        ats.push_back(at);
        at *= 10;
    }
    std::mt19937 rng(7);
    auto shuffled = ats;
    std::shuffle(shuffled.begin(), shuffled.end(), rng);
    for (const auto t : shuffled) {
        queue.push(SimTime{t}, [] {});
    }
    std::vector<std::int64_t> popped;
    while (!queue.empty()) popped.push_back(queue.pop().first.ns());
    EXPECT_EQ(popped, ats);
}

TEST(EventQueueReserve, ReserveDoesNotChangeObservableState) {
    EventQueue queue;
    queue.push(sim::seconds(2), [] {});
    queue.reserve(10'000);
    queue.push(sim::seconds(1), [] {});
    EXPECT_EQ(queue.size(), 2u);
    EXPECT_EQ(queue.next_time(), sim::seconds(1));
    EXPECT_EQ(queue.pop().first, sim::seconds(1));
    EXPECT_EQ(queue.pop().first, sim::seconds(2));
}

TEST(EventQueueReserve, SimulationForwardsReserve) {
    Simulation simulation;
    simulation.reserve_events(4096);
    int fired = 0;
    for (int i = 0; i < 100; ++i) {
        simulation.schedule(sim::milliseconds(i), [&] { ++fired; });
    }
    simulation.run();
    EXPECT_EQ(fired, 100);
}

// ---------------------------------------------------------------------------
// Flow table: the exact-match index + wildcard fallback must return exactly
// what the reference full scan (peek) returns, on tables mixing priorities,
// specificities and timeouts.

net::Packet random_packet(sim::Rng& rng) {
    net::Packet p;
    p.src_ip = net::Ipv4{10, 0, 0, static_cast<std::uint8_t>(rng.uniform_int(0, 7))};
    p.dst_ip = net::Ipv4{10, 0, 1, static_cast<std::uint8_t>(rng.uniform_int(0, 7))};
    p.dst_port = static_cast<std::uint16_t>(80 + rng.uniform_int(0, 3));
    p.proto = rng.uniform_int(0, 1) == 0 ? net::Proto::kTcp : net::Proto::kUdp;
    return p;
}

TEST(KernelFastPath, IndexedLookupMatchesReferenceScanOnMixedTable) {
    net::FlowTable table;
    sim::Rng rng(7);
    for (int i = 0; i < 200; ++i) {
        net::FlowEntry e;
        // Randomly wildcard each field so the table mixes fully-specified
        // entries (indexed) with partial matches (fallback scan).
        if (rng.uniform_int(0, 3) != 0) {
            e.match.src_ip =
                net::Ipv4{10, 0, 0, static_cast<std::uint8_t>(rng.uniform_int(0, 7))};
        }
        if (rng.uniform_int(0, 3) != 0) {
            e.match.dst_ip =
                net::Ipv4{10, 0, 1, static_cast<std::uint8_t>(rng.uniform_int(0, 7))};
        }
        if (rng.uniform_int(0, 3) != 0) {
            e.match.dst_port = static_cast<std::uint16_t>(80 + rng.uniform_int(0, 3));
        }
        if (rng.uniform_int(0, 3) != 0) {
            e.match.proto =
                rng.uniform_int(0, 1) == 0 ? net::Proto::kTcp : net::Proto::kUdp;
        }
        e.priority = static_cast<std::uint16_t>(rng.uniform_int(1, 5) * 100);
        e.cookie = static_cast<std::uint64_t>(i + 1);
        table.install(e, sim::SimTime::zero());
    }

    int hits = 0;
    for (int i = 0; i < 2000; ++i) {
        const net::Packet packet = random_packet(rng);
        const auto now = sim::milliseconds(i);
        // peek() is the reference full scan. Copy its result before lookup():
        // lookup() may sweep expired entries and invalidate the pointer.
        const net::FlowEntry* ref = table.peek(packet, now);
        const std::optional<net::FlowEntry> expected =
            ref ? std::optional<net::FlowEntry>(*ref) : std::nullopt;
        const auto got = table.lookup(packet, now);
        if (!expected) {
            EXPECT_FALSE(got.has_value()) << "scan missed but index hit, i=" << i;
        } else {
            ASSERT_TRUE(got.has_value()) << "index missed but scan hit, i=" << i;
            EXPECT_EQ(got->cookie, expected->cookie) << "winner differs, i=" << i;
            EXPECT_EQ(got->priority, expected->priority);
            ++hits;
        }
    }
    EXPECT_GT(hits, 0) << "test table never matched -- not exercising the index";
}

TEST(KernelFastPath, IndexedLookupMatchesScanAcrossExpiryAndRemoval) {
    net::FlowTable table;
    sim::Rng rng(9);
    std::vector<std::pair<net::FlowEntry, bool>> removed_log;
    table.set_removed_callback([&removed_log](const net::FlowEntry& e, bool idle) {
        removed_log.emplace_back(e, idle);
    });
    for (int i = 0; i < 64; ++i) {
        net::FlowEntry e;
        e.match.src_ip =
            net::Ipv4{10, 0, 0, static_cast<std::uint8_t>(rng.uniform_int(0, 7))};
        e.match.dst_ip =
            net::Ipv4{10, 0, 1, static_cast<std::uint8_t>(rng.uniform_int(0, 7))};
        e.match.dst_port = static_cast<std::uint16_t>(80 + rng.uniform_int(0, 3));
        e.match.proto = net::Proto::kTcp;
        if (rng.uniform_int(0, 1) == 0) e.idle_timeout = sim::seconds(rng.uniform_int(1, 5));
        if (rng.uniform_int(0, 2) == 0) e.hard_timeout = sim::seconds(rng.uniform_int(3, 8));
        e.cookie = static_cast<std::uint64_t>(i + 1);
        table.install(e, sim::SimTime::zero());
    }

    for (int i = 0; i < 400; ++i) {
        const net::Packet packet = random_packet(rng);
        const auto now = sim::milliseconds(i * 25); // crosses several timeouts
        const net::FlowEntry* ref = table.peek(packet, now);
        const std::optional<net::FlowEntry> expected =
            ref ? std::optional<net::FlowEntry>(*ref) : std::nullopt;
        const auto got = table.lookup(packet, now);
        if (!expected) {
            EXPECT_FALSE(got.has_value()) << "i=" << i;
        } else {
            ASSERT_TRUE(got.has_value()) << "i=" << i;
            EXPECT_EQ(got->cookie, expected->cookie) << "i=" << i;
        }
        if (i == 200) {
            // Structural removal mid-stream: the index must drop the entries.
            table.remove_by_cookie(5);
            table.remove_by_cookie(17);
        }
    }
    // Timeouts were assigned, so the amortized sweeps must actually fire.
    EXPECT_FALSE(removed_log.empty());
}

// ---------------------------------------------------------------------------
// Predicate-driven drain API.

TEST(KernelFastPath, RunWhileStopsWhenPredicateTurnsFalse) {
    Simulation simulation;
    int fired = 0;
    for (int i = 1; i <= 10; ++i) {
        simulation.schedule(sim::seconds(i), [&fired] { ++fired; });
    }
    const auto executed = simulation.run_while([&fired] { return fired < 4; });
    EXPECT_EQ(executed, 4u);
    EXPECT_EQ(fired, 4);
    EXPECT_EQ(simulation.now(), sim::seconds(4));
    EXPECT_TRUE(simulation.has_user_events());
}

TEST(KernelFastPath, RunUntilIdleOrReturnsEarlyWithoutAdvancingClock) {
    Simulation simulation;
    bool daemon_ran = false;
    simulation.schedule(sim::seconds(1), [] {});
    simulation.schedule(sim::seconds(100), [&daemon_ran] { daemon_ran = true; },
                        /*daemon=*/true);
    simulation.run_until_idle_or(sim::seconds(500));
    // User events drained at t=1; the clock must not jump to the deadline
    // and the far-future daemon tick must not have run.
    EXPECT_EQ(simulation.now(), sim::seconds(1));
    EXPECT_FALSE(daemon_ran);
}

TEST(KernelFastPath, DaemonEventsDoNotKeepRunAlive) {
    Simulation simulation;
    int daemon_ticks = 0;
    simulation.schedule_periodic(sim::seconds(1),
                                 [&daemon_ticks] { ++daemon_ticks; },
                                 /*daemon=*/true);
    simulation.schedule(sim::milliseconds(3500), [] {});
    simulation.run();
    // Daemon periodics fire while the user event is pending, then run()
    // returns instead of ticking forever.
    EXPECT_EQ(simulation.now(), sim::milliseconds(3500));
    EXPECT_EQ(daemon_ticks, 3);
}

} // namespace

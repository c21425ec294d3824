// Differential and liveness tests for the asynchronous channel-clock
// coordinator: barrier-vs-channel byte identity at several shard/worker
// combinations, TEDGE_SYNC validation, per-directed-channel lookahead
// contracts, null-message propagation past silent upstream domains, counter
// determinism on the single-worker path, and the core-pinning option.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <memory>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "net/partition.hpp"
#include "net/topology.hpp"
#include "simcore/logging.hpp"
#include "simcore/sharded_simulation.hpp"
#include "simcore/simulation.hpp"
#include "simcore/spsc_ring.hpp"
#include "simcore/thread_pool.hpp"

namespace tedge {
namespace {

using sim::DomainId;
using sim::ShardedSimulation;
using sim::SimTime;
using sim::SyncMode;

// ------------------------------------------------------------ scenario rig

/// Everything observable about one run, for byte-level comparison.
struct RunDigest {
    std::uint64_t events = 0;
    std::uint64_t messages = 0;
    std::int64_t now_ns = 0;
    std::string metrics;
    std::string trace;
    std::string logs;

    bool operator==(const RunDigest&) const = default;
};

struct ScenarioConfig {
    SyncMode sync = SyncMode::kChannel;
    std::size_t shards = 0;
    std::size_t workers = 1;
    bool explicit_channels = false;  ///< asymmetric per-pair lookaheads
    bool pin_lanes = false;
    double grain = -1.0;  ///< horizon grain override; negative keeps default
};

/// Four producer domains stream user events into a sink domain across 5 ms
/// channels while running their own daemon housekeeping; the sink counts,
/// logs, and traces everything. Every per-domain sink (metrics, trace, logs,
/// RNG-in-control-flow) participates so the digest catches any divergence
/// between coordinators.
RunDigest run_scenario(const ScenarioConfig& config,
                       std::uint64_t* null_messages = nullptr,
                       std::uint64_t* rounds = nullptr) {
    constexpr std::size_t kProducers = 4;
    constexpr int kEventsPerProducer = 60;
    const SimTime kLookahead = sim::milliseconds(5);

    ShardedSimulation::Options options;
    options.lookahead = kLookahead;
    options.shards = config.shards;
    options.workers = config.workers;
    options.sync = config.sync;
    options.pin_lanes = config.pin_lanes;
    if (config.grain >= 0.0) options.horizon_grain = config.grain;
    ShardedSimulation sharded(options);

    std::vector<sim::Domain*> producers;
    for (std::size_t p = 0; p < kProducers; ++p) {
        producers.push_back(&sharded.add_domain("prod" + std::to_string(p)));
    }
    sim::Domain& sink = sharded.add_domain("sink");
    const DomainId sink_id = sink.id();
    sink.enable_metrics();
    sink.enable_tracing();

    if (config.explicit_channels) {
        // Producers reach the sink over a tight 5 ms hop; the reverse
        // direction (never used for payload, but it gates the producers'
        // windows in channel mode) is a slow 50 ms hop. Producer-to-producer
        // pairs get mid-range channels so the mesh stays fully connected.
        for (DomainId p = 0; p < kProducers; ++p) {
            sharded.set_channel(p, sink_id, kLookahead);
            sharded.set_channel(sink_id, p, sim::milliseconds(50));
            for (DomainId q = 0; q < kProducers; ++q) {
                if (p != q) sharded.set_channel(p, q, sim::milliseconds(20));
            }
        }
    }

    struct ProducerState {
        std::optional<sim::Logger> log;
        int sent = 0;
    };
    auto state = std::make_shared<std::vector<ProducerState>>(kProducers);
    auto sink_log = std::make_shared<sim::Logger>(
        sink.make_logger("sink", sim::LogLevel::kInfo));
    // Tick closures re-schedule themselves; they are owned here (capturing
    // the shared_ptr inside its own closure would be a reference cycle).
    std::vector<std::unique_ptr<std::function<void()>>> ticks;

    for (std::size_t p = 0; p < kProducers; ++p) {
        auto& domain = *producers[p];
        domain.enable_metrics();
        domain.enable_tracing();
        (*state)[p].log.emplace(domain.make_logger("prod", sim::LogLevel::kInfo));

        // Daemon housekeeping rides along while user work remains anywhere.
        domain.sim().schedule_periodic(
            sim::milliseconds(7),
            [&domain] { domain.metrics().counter("prod.sweep").inc(); },
            /*daemon=*/true);

        // Self-rescheduling user-event chain; the inter-arrival gap draws
        // from the domain RNG so a single perturbed draw changes every sink.
        ticks.push_back(std::make_unique<std::function<void()>>());
        auto* tick = ticks.back().get();
        *tick = [&domain, &sink, sink_id, state, sink_log, p, tick,
                 kLookahead] {
            auto& me = (*state)[p];
            const auto span = domain.tracer().begin("produce");
            domain.metrics().counter("prod.events").inc();
            const int seq = me.sent++;
            domain.post(sink_id, domain.sim().now() + kLookahead,
                        [&sink, sink_log, p, seq] {
                            sink.metrics().counter("sink.received").inc();
                            if (seq % 16 == 0) {
                                sink_log->info("got prod" + std::to_string(p) +
                                               "#" + std::to_string(seq));
                            }
                        });
            if (domain.rng().uniform01() < 0.2) {
                me.log->info("burst at #" + std::to_string(seq));
            }
            domain.tracer().end(span);
            if (me.sent < kEventsPerProducer) {
                const auto gap = sim::microseconds(
                    500 + static_cast<std::int64_t>(domain.rng().uniform01() *
                                                    4000.0));
                domain.sim().schedule(gap, *tick);
            }
        };
        domain.sim().schedule(sim::milliseconds(1 + static_cast<int>(p)), *tick);
    }

    RunDigest digest;
    sharded.run();
    sharded.run_until(sharded.now() + sim::milliseconds(50));
    digest.events = sharded.events_executed();
    digest.messages = sharded.messages_delivered();
    digest.now_ns = sharded.now().ns();
    digest.metrics = sharded.dump_metrics();
    {
        std::ostringstream os;
        sharded.write_chrome_trace(os);
        digest.trace = os.str();
    }
    {
        std::ostringstream os;
        sharded.flush_logs(os);
        digest.logs = os.str();
    }
    if (null_messages != nullptr) *null_messages = sharded.null_messages();
    if (rounds != nullptr) *rounds = sharded.rounds();
    return digest;
}

// ------------------------------------------------- barrier-vs-channel diff

// The tentpole guarantee: the asynchronous channel-clock coordinator is an
// implementation detail. Every observable byte of a run -- event counts,
// delivered messages, clocks, metrics, trace, logs -- matches the barrier
// coordinator at every shard and worker combination, with implicit-mesh and
// explicit asymmetric channel graphs alike.
TEST(ChannelSyncDifferentialTest, BarrierAndChannelProduceIdenticalRuns) {
    for (const bool explicit_channels : {false, true}) {
        ScenarioConfig base_config;
        base_config.sync = SyncMode::kBarrier;
        base_config.shards = 1;
        base_config.workers = 1;
        base_config.explicit_channels = explicit_channels;
        const RunDigest base = run_scenario(base_config);
        ASSERT_GT(base.events, 200u);
        ASSERT_GT(base.messages, 0u);
        ASSERT_FALSE(base.logs.empty());

        for (const SyncMode sync : {SyncMode::kBarrier, SyncMode::kChannel}) {
            for (const std::size_t shards : {1u, 2u, 8u}) {
                for (const std::size_t workers : {1u, 4u}) {
                    ScenarioConfig config = base_config;
                    config.sync = sync;
                    config.shards = shards;
                    config.workers = workers;
                    const RunDigest run = run_scenario(config);
                    const std::string label =
                        std::string(sync == SyncMode::kBarrier ? "barrier "
                                                               : "channel ") +
                        std::to_string(shards) + "x" + std::to_string(workers) +
                        (explicit_channels ? " explicit" : " mesh");
                    EXPECT_EQ(run.events, base.events) << label;
                    EXPECT_EQ(run.messages, base.messages) << label;
                    EXPECT_EQ(run.now_ns, base.now_ns) << label;
                    EXPECT_EQ(run.metrics, base.metrics) << label;
                    EXPECT_EQ(run.trace, base.trace) << label;
                    EXPECT_EQ(run.logs, base.logs) << label;
                }
            }
        }
    }
}

// The horizon grain is purely a scheduling-pressure knob: it decides when
// a lane bothers publishing a payload-free horizon advance, never which
// events execute or in what order. Any grain -- the classic incremental
// climb at 0, the default L/4, or a full lookahead -- yields the identical
// digest, at every shard/worker combination.
TEST(ChannelSyncDifferentialTest, GrainSweepProducesIdenticalRuns) {
    ScenarioConfig base_config;
    base_config.sync = SyncMode::kBarrier;
    base_config.shards = 1;
    base_config.workers = 1;
    base_config.explicit_channels = true;
    const RunDigest base = run_scenario(base_config);

    for (const double grain : {0.0, 0.25, 1.0}) {
        for (const std::size_t shards : {2u, 8u}) {
            for (const std::size_t workers : {1u, 4u}) {
                ScenarioConfig config = base_config;
                config.sync = SyncMode::kChannel;
                config.shards = shards;
                config.workers = workers;
                config.grain = grain;
                const std::string label = "grain " + std::to_string(grain) +
                                          " " + std::to_string(shards) + "x" +
                                          std::to_string(workers);
                EXPECT_EQ(run_scenario(config), base) << label;
            }
        }
    }
}

// Core pinning is purely a wall-clock knob: a pinned multi-worker channel
// run produces the identical digest (and degrades gracefully when the host
// has fewer cores than lanes -- this container often has one).
TEST(ChannelSyncDifferentialTest, PinnedLanesChangeNothingObservable) {
    ScenarioConfig config;
    config.sync = SyncMode::kChannel;
    config.shards = 8;
    config.workers = 4;
    const RunDigest unpinned = run_scenario(config);
    config.pin_lanes = true;
    EXPECT_EQ(run_scenario(config), unpinned);
}

// Window and null-message counters are deterministic on the single-worker
// inline path (the multi-core CI gate relies on this on 1-core hosts).
TEST(ChannelSyncDifferentialTest, CountersDeterministicWithSingleWorker) {
    ScenarioConfig config;
    config.sync = SyncMode::kChannel;
    config.shards = 8;
    config.workers = 1;
    config.explicit_channels = true;
    std::uint64_t nulls_a = 0, rounds_a = 0, nulls_b = 0, rounds_b = 0;
    const RunDigest a = run_scenario(config, &nulls_a, &rounds_a);
    const RunDigest b = run_scenario(config, &nulls_b, &rounds_b);
    EXPECT_EQ(a, b);
    EXPECT_EQ(nulls_a, nulls_b);
    EXPECT_EQ(rounds_a, rounds_b);
    EXPECT_GT(rounds_a, 0u);
}

// ------------------------------------------------------ TEDGE_SYNC values

/// Sets TEDGE_SYNC (nullptr unsets it) for one scope and restores the
/// caller's value afterwards, so the rest of the suite keeps running under
/// whichever coordinator the environment selected.
class ScopedSyncEnv {
public:
    explicit ScopedSyncEnv(const char* value) {
        if (const char* prev = std::getenv("TEDGE_SYNC")) saved_ = prev;
        if (value != nullptr) {
            ::setenv("TEDGE_SYNC", value, 1);
        } else {
            ::unsetenv("TEDGE_SYNC");
        }
    }
    ~ScopedSyncEnv() {
        if (saved_) {
            ::setenv("TEDGE_SYNC", saved_->c_str(), 1);
        } else {
            ::unsetenv("TEDGE_SYNC");
        }
    }
    ScopedSyncEnv(const ScopedSyncEnv&) = delete;
    ScopedSyncEnv& operator=(const ScopedSyncEnv&) = delete;

private:
    std::optional<std::string> saved_;
};

// TEDGE_SYNC names one of the two coordinators or nothing at all. Any other
// value -- a name this build has no coordinator for, a typo -- must fail
// loudly instead of silently running the default, and the error must list
// what is accepted.
TEST(SyncModeEnvTest, AcceptsExactlyBarrierAndChannel) {
    {
        const ScopedSyncEnv env(nullptr);
        EXPECT_EQ(ShardedSimulation::default_sync(), SyncMode::kChannel);
    }
    {
        const ScopedSyncEnv env("barrier");
        EXPECT_EQ(ShardedSimulation::default_sync(), SyncMode::kBarrier);
        EXPECT_EQ(ShardedSimulation::Options{}.sync, SyncMode::kBarrier);
    }
    {
        const ScopedSyncEnv env("channel");
        EXPECT_EQ(ShardedSimulation::default_sync(), SyncMode::kChannel);
    }
    for (const char* bad : {"locked", "mutex", "Channel", "barrier ", ""}) {
        const ScopedSyncEnv env(bad);
        try {
            static_cast<void>(ShardedSimulation::default_sync());
            ADD_FAILURE() << "TEDGE_SYNC='" << bad << "' was accepted";
        } catch (const std::invalid_argument& e) {
            const std::string what = e.what();
            EXPECT_NE(what.find("'barrier'"), std::string::npos) << what;
            EXPECT_NE(what.find("'channel'"), std::string::npos) << what;
        }
        // Options reads the variable, so no coordinator can be built from it.
        EXPECT_THROW(static_cast<void>(ShardedSimulation::Options{}),
                     std::invalid_argument)
            << bad;
    }
}

// --------------------------------------------------- per-channel contracts

TEST(ChannelLookaheadTest, PerChannelContractsReplaceTheGlobalMinimum) {
    ShardedSimulation::Options options;
    options.shards = 1;
    options.workers = 1;
    ShardedSimulation sharded(options);
    auto& a = sharded.add_domain("a");
    auto& b = sharded.add_domain("b");
    sharded.add_domain("c");
    sharded.set_channel(a.id(), b.id(), sim::milliseconds(5));
    sharded.set_channel(b.id(), a.id(), sim::milliseconds(50));

    EXPECT_TRUE(sharded.has_explicit_channels());
    EXPECT_EQ(sharded.lookahead(), sim::milliseconds(5));
    EXPECT_EQ(a.lookahead_to(b.id()), sim::milliseconds(5));
    EXPECT_EQ(b.lookahead_to(a.id()), sim::milliseconds(50));

    // The tight direction admits a 5 ms timestamp...
    a.post(b.id(), sim::milliseconds(5), [] {});
    // ...the slow direction requires its own 50 ms bound, not the global min...
    EXPECT_THROW(b.post(a.id(), sim::milliseconds(5), [] {}), std::logic_error);
    b.post(a.id(), sim::milliseconds(50), [] {});
    // ...and a pair with no declared channel cannot talk at all.
    EXPECT_THROW(a.post(2, sim::seconds(10), [] {}), std::logic_error);
    EXPECT_THROW(static_cast<void>(sharded.channel_lookahead(a.id(), 2)),
                 std::logic_error);

    sharded.run();
    EXPECT_EQ(sharded.messages_delivered(), 2u);

    // Channel lookaheads must be positive and finite.
    EXPECT_THROW(sharded.set_channel(0, 1, SimTime::zero()),
                 std::invalid_argument);
    EXPECT_THROW(sharded.set_channel(0, 1, SimTime::max()),
                 std::invalid_argument);
}

TEST(ChannelLookaheadTest, PartitionDerivesDirectedChannels) {
    net::Topology topo;
    const auto a = topo.add_switch("a");
    const auto b = topo.add_switch("b");
    const auto c = topo.add_switch("c");
    topo.add_link(a, b, sim::milliseconds(25), sim::mbit_per_sec(1'000));
    topo.add_link(b, c, sim::milliseconds(40), sim::mbit_per_sec(1'000));
    topo.add_link(a, c, sim::milliseconds(10), sim::mbit_per_sec(1'000));

    // {a} | {b} | {c}: every link is cut; each directed pair keeps its own
    // minimum latency, in both directions.
    net::TopologyPartition partition(topo, {0, 1, 2});
    EXPECT_EQ(partition.lookahead(), sim::milliseconds(10));
    const auto& channels = partition.channels();
    ASSERT_EQ(channels.size(), 6u);
    auto lookahead_of = [&](DomainId src, DomainId dst) {
        for (const auto& ch : channels) {
            if (ch.src == src && ch.dst == dst) return ch.lookahead;
        }
        return SimTime::zero();
    };
    EXPECT_EQ(lookahead_of(0, 1), sim::milliseconds(25));
    EXPECT_EQ(lookahead_of(1, 0), sim::milliseconds(25));
    EXPECT_EQ(lookahead_of(1, 2), sim::milliseconds(40));
    EXPECT_EQ(lookahead_of(0, 2), sim::milliseconds(10));
    EXPECT_EQ(lookahead_of(2, 0), sim::milliseconds(10));

    // Point lookups agree with the channel list; absent pairs (including the
    // trivial self-pair) read as "no channel".
    EXPECT_EQ(partition.channel_lookahead(0, 1), sim::milliseconds(25));
    EXPECT_EQ(partition.channel_lookahead(1, 2), sim::milliseconds(40));
    EXPECT_EQ(partition.channel_lookahead(2, 0), sim::milliseconds(10));
    EXPECT_EQ(partition.channel_lookahead(0, 0), SimTime::max());

    ShardedSimulation sharded;
    auto& da = sharded.add_domain("a");
    sharded.add_domain("b");
    sharded.add_domain("c");
    partition.apply_channels(sharded);
    EXPECT_EQ(sharded.lookahead(), sim::milliseconds(10));
    EXPECT_EQ(da.lookahead_to(1), sim::milliseconds(25));
    EXPECT_EQ(da.lookahead_to(2), sim::milliseconds(10));
}

// ------------------------------------------------------------- liveness

// The classic conservative-sync liveness scenario: a receiver gated by a
// completely silent upstream channel. Null messages (horizon publications
// with no payload) must carry the receiver past the silence -- and their
// count must stay bounded, not proportional to simulated time over the
// smallest lookahead.
TEST(NullMessageLivenessTest, SilentUpstreamDoesNotStallReceiver) {
    ShardedSimulation::Options options;
    options.sync = SyncMode::kChannel;
    options.shards = 0;   // one lane per domain
    options.workers = 1;  // deterministic inline coordinator
    // Pin the grain (rather than inheriting TEDGE_GRAIN) so the lift-vs-
    // climb contract below holds under any environment the suite runs in.
    options.horizon_grain = 0.25;
    ShardedSimulation sharded(options);
    auto& talker = sharded.add_domain("talker");
    auto& silent = sharded.add_domain("silent");
    auto& receiver = sharded.add_domain("receiver");

    // Asymmetric lookaheads: the silent domain's channel is far tighter than
    // the talker's, so the receiver's safe bound is dominated by silence.
    sharded.set_channel(talker.id(), receiver.id(), sim::milliseconds(20));
    sharded.set_channel(silent.id(), receiver.id(), sim::milliseconds(1));
    sharded.set_channel(receiver.id(), talker.id(), sim::milliseconds(20));
    sharded.set_channel(receiver.id(), silent.id(), sim::milliseconds(1));

    int received = 0;
    constexpr int kMessages = 50;
    std::function<void()> tick;
    int sent = 0;
    tick = [&] {
        talker.post(receiver.id(),
                    talker.sim().now() + sim::milliseconds(20),
                    [&received] { ++received; });
        if (++sent < kMessages) talker.sim().schedule(sim::milliseconds(10), tick);
    };
    talker.sim().schedule(SimTime::zero(), tick);

    sharded.run();

    EXPECT_EQ(received, kMessages);
    // At the default grain the quiescence-time horizon lift replaces the
    // incremental climb past silence, so the null count stays far below the
    // textbook virtual-time-over-lookahead cost -- typically zero.
    EXPECT_LT(sharded.null_messages(), 5000u);

    // Grain 0 restores the classic incremental climb: null messages step the
    // silent cycle one lookahead at a time, so the count is positive but
    // still bounded by virtual time over the cycle lookahead (hundreds
    // here), never unbounded or per-event.
    ShardedSimulation::Options classic_options = options;
    classic_options.horizon_grain = 0.0;
    ShardedSimulation classic(classic_options);
    auto& tc = classic.add_domain("talker");
    auto& sc = classic.add_domain("silent");
    auto& rc = classic.add_domain("receiver");
    classic.set_channel(tc.id(), rc.id(), sim::milliseconds(20));
    classic.set_channel(sc.id(), rc.id(), sim::milliseconds(1));
    classic.set_channel(rc.id(), tc.id(), sim::milliseconds(20));
    classic.set_channel(rc.id(), sc.id(), sim::milliseconds(1));
    int received_classic = 0;
    std::function<void()> tick_classic;
    int sent_classic = 0;
    tick_classic = [&] {
        tc.post(rc.id(), tc.sim().now() + sim::milliseconds(20),
                [&received_classic] { ++received_classic; });
        if (++sent_classic < kMessages) {
            tc.sim().schedule(sim::milliseconds(10), tick_classic);
        }
    };
    tc.sim().schedule(SimTime::zero(), tick_classic);
    classic.run();
    EXPECT_EQ(received_classic, kMessages);
    EXPECT_GT(classic.null_messages(), 0u);
    EXPECT_LT(classic.null_messages(), 5000u);
    EXPECT_GT(classic.null_messages(), sharded.null_messages());

    // And the count is reproducible (single-worker inline coordinator).
    ShardedSimulation::Options repeat_options = options;
    ShardedSimulation repeat(repeat_options);
    auto& t2 = repeat.add_domain("talker");
    auto& s2 = repeat.add_domain("silent");
    auto& r2 = repeat.add_domain("receiver");
    repeat.set_channel(t2.id(), r2.id(), sim::milliseconds(20));
    repeat.set_channel(s2.id(), r2.id(), sim::milliseconds(1));
    repeat.set_channel(r2.id(), t2.id(), sim::milliseconds(20));
    repeat.set_channel(r2.id(), s2.id(), sim::milliseconds(1));
    int received2 = 0;
    std::function<void()> tick2;
    int sent2 = 0;
    tick2 = [&] {
        t2.post(r2.id(), t2.sim().now() + sim::milliseconds(20),
                [&received2] { ++received2; });
        if (++sent2 < kMessages) t2.sim().schedule(sim::milliseconds(10), tick2);
    };
    t2.sim().schedule(SimTime::zero(), tick2);
    repeat.run();
    EXPECT_EQ(received2, kMessages);
    EXPECT_EQ(repeat.null_messages(), sharded.null_messages());
}

// run_until must also clear silent-channel gating: every clock reaches the
// deadline even though two of the three domains never execute anything.
TEST(NullMessageLivenessTest, RunUntilAdvancesClocksPastSilentChannels) {
    ShardedSimulation::Options options;
    options.sync = SyncMode::kChannel;
    options.workers = 1;
    ShardedSimulation sharded(options);
    auto& a = sharded.add_domain("a");
    auto& b = sharded.add_domain("b");
    auto& c = sharded.add_domain("c");
    sharded.set_channel(a.id(), b.id(), sim::milliseconds(2));
    sharded.set_channel(b.id(), c.id(), sim::milliseconds(3));
    sharded.set_channel(c.id(), a.id(), sim::milliseconds(5));

    int fired = 0;
    a.sim().schedule(sim::milliseconds(30), [&] { ++fired; });
    const SimTime deadline = sim::milliseconds(80);
    sharded.run_until(deadline);
    EXPECT_EQ(fired, 1);
    EXPECT_EQ(a.sim().now(), deadline);
    EXPECT_EQ(b.sim().now(), deadline);
    EXPECT_EQ(c.sim().now(), deadline);
}

// ---------------------------------------------------- SPSC mailbox rings

using MessageBatch = std::vector<int>;

TEST(SpscRingTest, CapacityRoundsUpToPowerOfTwo) {
    EXPECT_EQ(sim::SpscRing<int>(1).capacity(), 2u);
    EXPECT_EQ(sim::SpscRing<int>(2).capacity(), 2u);
    EXPECT_EQ(sim::SpscRing<int>(3).capacity(), 4u);
    EXPECT_EQ(sim::SpscRing<int>(64).capacity(), 64u);
    EXPECT_EQ(sim::SpscRing<int>(65).capacity(), 128u);
}

// Indices are free-running (they wrap the slot array via the mask, never
// themselves reset), so FIFO order and emptiness must survive many times
// the capacity in traffic.
TEST(SpscRingTest, WraparoundPreservesFifoOrder) {
    sim::SpscRing<MessageBatch> ring(4);
    ASSERT_EQ(ring.capacity(), 4u);
    int produced = 0;
    int consumed = 0;
    for (int lap = 0; lap < 10; ++lap) {
        // Vary the burst length so head/tail land on every phase of the mask.
        const int burst = 1 + lap % static_cast<int>(ring.capacity());
        for (int i = 0; i < burst; ++i) {
            MessageBatch batch{produced++};
            ASSERT_TRUE(ring.try_push(batch));
        }
        EXPECT_EQ(ring.size(), static_cast<std::size_t>(burst));
        MessageBatch out;
        while (ring.try_pop(out)) {
            ASSERT_EQ(out.size(), 1u);
            EXPECT_EQ(out.front(), consumed++);
        }
        EXPECT_TRUE(ring.empty());
    }
    EXPECT_EQ(consumed, produced);
    EXPECT_GT(produced, static_cast<int>(ring.capacity()) * 2);
}

// A full ring refuses the push and leaves the caller's batch untouched --
// the coordinator relies on this to keep the batch alive while it drains
// its own inbound rings to make space.
TEST(SpscRingTest, FullRingBackpressureLeavesBatchIntact) {
    sim::SpscRing<MessageBatch> ring(2);
    MessageBatch a{1}, b{2}, overflow{3, 4, 5};
    ASSERT_TRUE(ring.try_push(a));
    ASSERT_TRUE(ring.try_push(b));
    EXPECT_FALSE(ring.try_push(overflow));
    EXPECT_EQ(overflow, (MessageBatch{3, 4, 5}));  // untouched on failure
    MessageBatch out;
    ASSERT_TRUE(ring.try_pop(out));
    EXPECT_EQ(out, MessageBatch{1});
    EXPECT_TRUE(ring.try_push(overflow));  // space freed -> push succeeds
    ASSERT_TRUE(ring.try_pop(out));
    EXPECT_EQ(out, MessageBatch{2});
    ASSERT_TRUE(ring.try_pop(out));
    EXPECT_EQ(out, (MessageBatch{3, 4, 5}));
    EXPECT_FALSE(ring.try_pop(out));
}

// Swap-based exchange recycles heap capacity both ways: the consumer hands
// a drained vector back via its pop argument and the producer receives it
// from the next push into that slot.
TEST(SpscRingTest, SwapRecyclesSlotCapacity) {
    sim::SpscRing<MessageBatch> ring(2);
    MessageBatch batch;
    batch.reserve(1024);
    batch.push_back(7);
    ASSERT_TRUE(ring.try_push(batch));
    EXPECT_TRUE(batch.empty());  // got the slot's (empty) previous value

    MessageBatch out;
    out.reserve(2048);  // consumer's recycled buffer goes back into the slot
    ASSERT_TRUE(ring.try_pop(out));
    EXPECT_EQ(out, MessageBatch{7});
    EXPECT_GE(out.capacity(), 1024u);

    batch.clear();
    ASSERT_TRUE(ring.try_push(batch));  // lands in a fresh slot
    MessageBatch second;
    ASSERT_TRUE(ring.try_push(second));  // reuses the popped slot...
    EXPECT_GE(second.capacity(), 2048u);  // ...handing its buffer back
}

// Destroying a ring with undrained batches must release them cleanly; the
// coordinator tears rings down at shutdown with whatever the consumer never
// claimed still aboard. shared_ptr elements make a leak observable.
TEST(SpscRingTest, DestructionReleasesInFlightBatches) {
    auto tracker = std::make_shared<int>(42);
    std::weak_ptr<int> watch = tracker;
    {
        sim::SpscRing<std::vector<std::shared_ptr<int>>> ring(8);
        std::vector<std::shared_ptr<int>> batch{tracker, tracker, tracker};
        ASSERT_TRUE(ring.try_push(batch));
        std::vector<std::shared_ptr<int>> partial{tracker};
        ASSERT_TRUE(ring.try_push(partial));
        std::vector<std::shared_ptr<int>> drained;
        ASSERT_TRUE(ring.try_pop(drained));  // one batch consumed...
        tracker.reset();
        EXPECT_FALSE(watch.expired());  // ...one still in flight
        // Ring destroyed here with the partial batch undrained.
    }
    EXPECT_TRUE(watch.expired());
}

// The SPSC pair under real concurrency: one producer thread, one consumer
// thread, no locks. TSan verifies the release/acquire pairing; the assert
// verifies no batch is lost, duplicated, or reordered.
TEST(SpscRingTest, ConcurrentProducerConsumerDeliversEverythingInOrder) {
    sim::SpscRing<MessageBatch> ring(8);
    constexpr int kBatches = 5000;
    // Yield (not cpu_relax) on full/empty: on a single-core host a pure spin
    // burns a whole scheduler quantum before the peer can run.
    std::thread producer([&ring] {
        for (int i = 0; i < kBatches;) {
            MessageBatch batch{i};
            if (ring.try_push(batch)) {
                ++i;
            } else {
                std::this_thread::yield();
            }
        }
    });
    int expected = 0;
    MessageBatch out;
    while (expected < kBatches) {
        if (ring.try_pop(out)) {
            ASSERT_EQ(out.size(), 1u);
            ASSERT_EQ(out.front(), expected);
            ++expected;
        } else {
            std::this_thread::yield();
        }
    }
    producer.join();
    EXPECT_TRUE(ring.empty());
}

// ------------------------------------------------- eventcount liveness

// The park/unpark protocol must not lose wakeups: a waiter that takes a
// ticket, rechecks, and parks is always released by a notify that follows
// its prepare. Run under TSan in CI; a lost wakeup hangs the test (and the
// 60s gtest default timeout in CI flags it), a data race trips TSan.
TEST(EventcountTest, NotifyAfterPrepareAlwaysReleasesWaiter) {
    sim::Eventcount gate;
    std::atomic<int> stage{0};
    std::atomic<bool> done{false};
    std::uint64_t parked_ns = 0;

    std::thread waiter([&] {
        while (!done.load(std::memory_order_acquire)) {
            const auto ticket = gate.prepare();
            if (stage.exchange(0, std::memory_order_acq_rel) != 0) continue;
            if (done.load(std::memory_order_acquire)) break;
            gate.wait(ticket, &parked_ns, /*spin=*/16);
        }
    });

    for (int i = 0; i < 2000; ++i) {
        stage.store(1, std::memory_order_release);
        gate.notify();
    }
    done.store(true, std::memory_order_release);
    gate.notify();
    waiter.join();
    SUCCEED();  // completion *is* the assertion: no lost wakeup, no hang
}

// Many waiters, one notifier: notify() must release every parked thread
// (it is a broadcast, matching the coordinator's one-gate-many-lanes use).
TEST(EventcountTest, NotifyReleasesAllParkedWaiters) {
    sim::Eventcount gate;
    constexpr int kWaiters = 4;
    std::atomic<int> generation{0};
    std::atomic<int> observed{0};
    std::atomic<bool> done{false};

    std::vector<std::thread> waiters;
    for (int w = 0; w < kWaiters; ++w) {
        waiters.emplace_back([&] {
            int seen = 0;
            while (true) {
                const auto ticket = gate.prepare();
                const int gen = generation.load(std::memory_order_acquire);
                if (done.load(std::memory_order_acquire)) break;
                if (gen == seen) {
                    gate.wait(ticket, nullptr, /*spin=*/16);
                    continue;
                }
                seen = gen;
                observed.fetch_add(1, std::memory_order_acq_rel);
            }
        });
    }

    constexpr int kRounds = 50;
    for (int round = 1; round <= kRounds; ++round) {
        generation.store(round, std::memory_order_release);
        gate.notify();
        // Every waiter must observe this generation before the next round;
        // spin-wait (bounded by the test timeout) rather than sleeping.
        while (observed.load(std::memory_order_acquire) < round * kWaiters) {
            sim::cpu_relax();
        }
    }
    done.store(true, std::memory_order_release);
    gate.notify();
    for (auto& t : waiters) t.join();
    EXPECT_EQ(observed.load(), kRounds * kWaiters);
}

} // namespace
} // namespace tedge

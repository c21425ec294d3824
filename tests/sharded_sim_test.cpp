// Determinism and correctness of the sharded conservative kernel:
// ShardedSimulation / Domain, the (timestamp, source, sequence) mailbox
// merge, per-domain RNG streams, TopologyPartition lookahead derivation,
// the per-shard workload pumps, and the buffered log sinks. Every test that
// runs a multi-domain coordinator runs it under both the production channel
// coordinator and the barrier oracle.
#include <gtest/gtest.h>

#include <array>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "net/partition.hpp"
#include "net/topology.hpp"
#include "sdn/control_plane_shard.hpp"
#include "simcore/logging.hpp"
#include "simcore/random.hpp"
#include "simcore/sharded_simulation.hpp"
#include "simcore/simulation.hpp"
#include "workload/stream.hpp"

namespace tedge {
namespace {

using sim::DomainId;
using sim::ShardedSimulation;
using sim::SimTime;
using sim::SyncMode;

constexpr std::array<SyncMode, 2> kSyncModes{SyncMode::kBarrier,
                                             SyncMode::kChannel};

const char* sync_name(SyncMode sync) {
    return sync == SyncMode::kBarrier ? "barrier" : "channel";
}

ShardedSimulation::Options options_with(SimTime lookahead, std::size_t shards,
                                        std::size_t workers, SyncMode sync) {
    ShardedSimulation::Options options;
    options.lookahead = lookahead;
    options.shards = shards;
    options.workers = workers;
    options.sync = sync;
    return options;
}

// ---------------------------------------------------------------- mailboxes

// Messages posted during one window are delivered in (timestamp, source id,
// per-source sequence) order regardless of posting order -- the total order
// the determinism argument rests on.
TEST(ShardedMailboxTest, DeliveryOrderIsTimestampSourceSequence) {
    for (const SyncMode sync : kSyncModes) {
        SCOPED_TRACE(sync_name(sync));
        ShardedSimulation sharded(options_with(sim::milliseconds(10), 1, 1, sync));
        auto& a = sharded.add_domain("a");
        auto& b = sharded.add_domain("b");
        auto& dst = sharded.add_domain("dst");

        std::vector<std::string> delivered;
        const SimTime at = sim::milliseconds(50);
        auto tag = [&](const std::string& name) {
            return [&delivered, name] { delivered.push_back(name); };
        };

        // Post in deliberately scrambled order; all but one share a
        // timestamp. Within domain `b`, seq follows post() call order.
        a.sim().schedule(SimTime::zero(), [&] {
            b.post(2, at, tag("b/0"));
            a.post(2, at + sim::milliseconds(1), tag("a-late"));
            b.post(2, at, tag("b/1"));
            a.post(2, at, tag("a/0"));
        });
        sharded.run();

        ASSERT_EQ(delivered.size(), 4u);
        // Same timestamp: source id 0 ("a") before source id 1 ("b"); within
        // "b", sequence order; the later timestamp last.
        EXPECT_EQ(delivered[0], "a/0");
        EXPECT_EQ(delivered[1], "b/0");
        EXPECT_EQ(delivered[2], "b/1");
        EXPECT_EQ(delivered[3], "a-late");
        EXPECT_EQ(sharded.messages_delivered(), 4u);
        EXPECT_EQ(dst.sim().events_executed(), 4u);
    }
}

TEST(ShardedMailboxTest, LookaheadContractViolationsThrow) {
    ShardedSimulation sharded(
        options_with(sim::milliseconds(10), 1, 1, SyncMode::kChannel));
    auto& a = sharded.add_domain("a");
    sharded.add_domain("b");

    // Too early: at < now + lookahead.
    EXPECT_THROW(a.post(1, sim::milliseconds(5), [] {}), std::logic_error);
    // Unknown destination.
    EXPECT_THROW(a.post(7, sim::milliseconds(50), [] {}), std::out_of_range);
    // No finite lookahead configured at all.
    ShardedSimulation unbounded;
    auto& u = unbounded.add_domain("u");
    unbounded.add_domain("v");
    EXPECT_THROW(u.post(1, sim::seconds(1), [] {}), std::logic_error);
}

TEST(ShardedSimulationTest, ZeroLookaheadRejected) {
    ShardedSimulation::Options options;
    options.lookahead = SimTime::zero();
    EXPECT_THROW(ShardedSimulation{options}, std::invalid_argument);
    ShardedSimulation ok;
    EXPECT_THROW(ok.set_lookahead(sim::nanoseconds(-1)), std::invalid_argument);
}

// ------------------------------------------------------------- RNG streams

// A domain's RNG stream depends only on (run seed, domain id): adding more
// domains, or running under a different shard count, never perturbs the
// draws an existing domain observes.
TEST(ShardedRngTest, PerDomainStreamsIndependentOfShardCount) {
    auto draws = [](std::size_t total_domains, std::size_t shards) {
        ShardedSimulation sharded(
            options_with(sim::milliseconds(1), shards, 1, SyncMode::kChannel));
        std::vector<sim::Domain*> domains;
        for (std::size_t i = 0; i < total_domains; ++i) {
            domains.push_back(&sharded.add_domain("d" + std::to_string(i)));
        }
        std::vector<double> out;
        for (int round = 0; round < 4; ++round) {
            out.push_back(domains[1]->rng().uniform01());
        }
        return out;
    };

    const auto base = draws(2, 1);
    EXPECT_EQ(draws(2, 2), base);   // shard count: irrelevant
    EXPECT_EQ(draws(8, 8), base);   // sibling domains: irrelevant
    // And the stream really is the documented derivation.
    sim::Rng expected = sim::Rng::for_stream(42, 1);
    for (double d : base) EXPECT_DOUBLE_EQ(d, expected.uniform01());
    // Distinct domains get distinct streams.
    EXPECT_NE(sim::Rng::for_stream(42, 0).uniform01(),
              sim::Rng::for_stream(42, 1).uniform01());
}

// ------------------------------------------------- single-domain equivalence

// With one domain, run()/run_until() are the serial kernel: same event
// count, same order, same final clock as a standalone Simulation.
TEST(ShardedSimulationTest, SingleDomainMatchesSerialKernel) {
    auto scenario = [](sim::Simulation& sim, std::vector<int>& order) {
        sim.schedule(sim::milliseconds(5), [&] { order.push_back(2); });
        sim.schedule(sim::milliseconds(1), [&] {
            order.push_back(1);
            sim.schedule(sim::milliseconds(1), [&] { order.push_back(3); });
        });
        sim.schedule_at(sim::milliseconds(10), [&] { order.push_back(4); },
                        /*daemon=*/true);
    };

    sim::Simulation serial;
    std::vector<int> serial_order;
    scenario(serial, serial_order);
    const auto serial_count = serial.run();

    ShardedSimulation sharded;
    auto& domain = sharded.add_domain("only");
    std::vector<int> sharded_order;
    scenario(domain.sim(), sharded_order);
    const auto sharded_count = sharded.run();

    EXPECT_EQ(sharded_order, serial_order);
    EXPECT_EQ(sharded_count, serial_count);
    EXPECT_EQ(sharded.now(), serial.now());
    EXPECT_EQ(sharded.events_executed(), serial.events_executed());
}

TEST(ShardedSimulationTest, RunUntilAdvancesEveryClockToDeadline) {
    for (const SyncMode sync : kSyncModes) {
        SCOPED_TRACE(sync_name(sync));
        ShardedSimulation sharded(options_with(sim::milliseconds(10), 2, 1, sync));
        auto& a = sharded.add_domain("a");
        auto& b = sharded.add_domain("b");
        int fired = 0;
        a.sim().schedule(sim::milliseconds(30), [&] { ++fired; });
        // `b` has nothing scheduled at all.
        const SimTime deadline = sim::milliseconds(100);
        sharded.run_until(deadline);
        EXPECT_EQ(fired, 1);
        EXPECT_EQ(a.sim().now(), deadline);
        EXPECT_EQ(b.sim().now(), deadline);

        // Events at exactly a later deadline still execute (half-open window).
        a.sim().schedule_at(sim::milliseconds(200), [&] { ++fired; });
        sharded.run_until(sim::milliseconds(200));
        EXPECT_EQ(fired, 2);
    }
}

TEST(ShardedSimulationTest, AddDomainDuringRunThrows) {
    ShardedSimulation sharded;
    auto& a = sharded.add_domain("a");
    a.sim().schedule(SimTime::zero(), [&] {
        EXPECT_THROW(sharded.add_domain("late"), std::logic_error);
    });
    sharded.run();
}

// --------------------------------------------------- differential scenario

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

/// A fig09/fig12-shaped multi-domain scenario: `kEdges` edge domains each
/// running a ControlPlaneShard over its own Poisson arrival stream, plus a
/// controller domain aggregating periodic digests across 25 ms cut links.
/// Each edge also draws from its domain RNG, logs, traces, and counts
/// metrics, so the digest covers every per-domain sink.
RunDigest run_scenario(std::size_t shards, std::size_t workers, SyncMode sync) {
    constexpr std::size_t kEdges = 4;
    constexpr std::uint32_t kServices = 6;

    ShardedSimulation sharded(
        options_with(sim::milliseconds(25), shards, workers, sync));

    std::vector<sim::Domain*> edges;
    for (std::size_t e = 0; e < kEdges; ++e) {
        edges.push_back(&sharded.add_domain("edge" + std::to_string(e)));
    }
    sim::Domain& controller = sharded.add_domain("controller");
    sdn::ControlPlaneAggregator aggregator(controller);

    workload::PoissonStream::Options base_stream;
    base_stream.services = kServices;
    base_stream.clients = 64;
    base_stream.limit = 400;
    base_stream.total_rate_per_s = 40.0;
    base_stream.seed = 7;

    struct Edge {
        std::unique_ptr<sdn::ControlPlaneShard> plane;
        std::unique_ptr<workload::PoissonStream> stream;
        std::unique_ptr<workload::StreamPump> pump;
        std::optional<sim::Logger> log;
        std::size_t installed = 0;
    };
    std::vector<Edge> state(kEdges);
    for (std::size_t e = 0; e < kEdges; ++e) {
        auto& edge = state[e];
        auto& domain = *edges[e];
        domain.enable_metrics();
        domain.enable_tracing();
        domain.tracer().enable();
        edge.log.emplace(domain.make_logger("edge", sim::LogLevel::kInfo));

        sdn::ControlPlaneShard::Config config;
        config.flow_memory = {sim::seconds(30), sim::seconds(5)};
        config.digest_period = sim::seconds(2);
        edge.plane = std::make_unique<sdn::ControlPlaneShard>(
            domain, aggregator, config);
        edge.stream = std::make_unique<workload::PoissonStream>(
            workload::PoissonStream::shard_options(
                base_stream, static_cast<std::uint32_t>(e), kEdges));
        const std::uint32_t ip_base =
            0xc0000000u + static_cast<std::uint32_t>(e) * 0x01000000u;
        edge.pump = std::make_unique<workload::StreamPump>(
            domain.sim(), *edge.stream,
            [&edge, &domain, ip_base](const workload::TraceEvent& event,
                                      const std::optional<workload::TraceEvent>&) {
                const auto span = domain.tracer().begin("packet_in");
                const net::Ipv4 client{
                    ip_base + static_cast<std::uint32_t>(edge.installed)};
                const net::ServiceAddress address{
                    net::Ipv4{0x0a000000u + event.service}, 80, net::Proto::kTcp};
                const bool hit = edge.plane->packet_in(
                    client, address, "svc" + std::to_string(event.service),
                    net::NodeId{event.service}, 8000,
                    "edge" + std::to_string(event.client % 2));
                domain.metrics().counter(hit ? "scenario.hit" : "scenario.miss")
                    .inc();
                // Per-domain RNG participates in control flow, so a draw
                // perturbed by shard count would change every sink below.
                if (domain.rng().uniform01() < 0.25) {
                    edge.log->info("sampled arrival svc" +
                                   std::to_string(event.service));
                }
                domain.tracer().end(span);
                ++edge.installed;
            });
        edge.plane->start();
        edge.pump->start();
    }

    RunDigest digest;
    digest.events = sharded.run();
    // Let the idle scans drain the tables, still under the barrier protocol.
    sharded.run_until(sharded.now() + sim::seconds(40));
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
    EXPECT_GT(aggregator.digests_received(), 0u);
    EXPECT_EQ(aggregator.shards_reporting(), kEdges);
    EXPECT_GT(digest.messages, 0u);
    return digest;
}

// The tentpole guarantee: the full observable state of a multi-domain run --
// event counts, clocks, metrics dump, trace export, log bytes -- is
// identical at every (coordinator, shard, worker) combination.
TEST(ShardedDeterminismTest, IdenticalAcrossShardAndWorkerCounts) {
    const RunDigest base = run_scenario(1, 1, SyncMode::kBarrier);
    EXPECT_GT(base.events, 400u);
    EXPECT_FALSE(base.metrics.empty());
    EXPECT_FALSE(base.logs.empty());

    for (const SyncMode sync : kSyncModes) {
        for (const auto& [shards, workers] :
             std::vector<std::pair<std::size_t, std::size_t>>{
                 {1, 1}, {2, 1}, {2, 4}, {8, 1}, {8, 4}, {0, 2}}) {
            const std::string label = std::string(sync_name(sync)) + " " +
                                      std::to_string(shards) + "x" +
                                      std::to_string(workers);
            const RunDigest run = run_scenario(shards, workers, sync);
            EXPECT_EQ(run.events, base.events) << label;
            EXPECT_EQ(run.messages, base.messages) << label;
            EXPECT_EQ(run.now_ns, base.now_ns) << label;
            EXPECT_EQ(run.metrics, base.metrics) << label;
            EXPECT_EQ(run.trace, base.trace) << label;
            EXPECT_EQ(run.logs, base.logs) << label;
        }
    }
}

// Repeating the same configuration twice is also bit-stable (no hidden
// wall-clock or address-dependent state).
TEST(ShardedDeterminismTest, RepeatRunsAreBitStable) {
    EXPECT_EQ(run_scenario(2, 2, SyncMode::kChannel),
              run_scenario(2, 2, SyncMode::kChannel));
}

// ---------------------------------------------------------------- topology

TEST(TopologyPartitionTest, CutLinksAndLookahead) {
    net::Topology topo;
    const auto a = topo.add_switch("a");
    const auto b = topo.add_switch("b");
    const auto c = topo.add_switch("c");
    const auto d = topo.add_switch("d");
    topo.add_link(a, b, sim::microseconds(10), sim::mbit_per_sec(10'000));
    topo.add_link(b, c, sim::milliseconds(25), sim::mbit_per_sec(1'000));
    topo.add_link(c, d, sim::microseconds(10), sim::mbit_per_sec(10'000));
    topo.add_link(a, d, sim::milliseconds(40), sim::mbit_per_sec(1'000));

    // {a, b} | {c, d}: two cut links, lookahead = min(25ms, 40ms).
    net::TopologyPartition partition(topo, {0, 0, 1, 1});
    EXPECT_EQ(partition.domain_count(), 2u);
    EXPECT_EQ(partition.domain_of(a), 0u);
    EXPECT_EQ(partition.domain_of(c), 1u);
    EXPECT_EQ(partition.cut_links().size(), 2u);
    EXPECT_EQ(partition.lookahead(), sim::milliseconds(25));
    EXPECT_EQ(partition.nodes_in(0).size(), 2u);
    EXPECT_EQ(partition.nodes_in(1).size(), 2u);

    // Everything in one domain: no cuts, unbounded lookahead.
    const auto single = net::TopologyPartition::single_domain(topo);
    EXPECT_EQ(single.domain_count(), 1u);
    EXPECT_TRUE(single.cut_links().empty());
    EXPECT_EQ(single.lookahead(), SimTime::max());
}

TEST(TopologyPartitionTest, RejectsBadAssignments) {
    net::Topology topo;
    const auto a = topo.add_switch("a");
    const auto b = topo.add_switch("b");
    topo.add_link(a, b, SimTime::zero(), sim::mbit_per_sec(10'000));
    // Assignment size must match the node count.
    EXPECT_THROW(net::TopologyPartition(topo, {0}), std::invalid_argument);
    // A zero-latency cut link admits no conservative lookahead.
    EXPECT_THROW(net::TopologyPartition(topo, {0, 1}), std::invalid_argument);
    // Keeping the zero-latency link internal is fine.
    EXPECT_EQ(net::TopologyPartition(topo, {0, 0}).lookahead(), SimTime::max());
}

// ---------------------------------------------------------------- workload

TEST(StreamShardingTest, ShardOptionsSplitBudgetAndRate) {
    workload::PoissonStream::Options base;
    base.services = 4;
    base.limit = 10;
    base.total_rate_per_s = 30.0;
    base.seed = 99;

    std::size_t total = 0;
    for (std::uint32_t s = 0; s < 3; ++s) {
        const auto shard = workload::PoissonStream::shard_options(base, s, 3);
        EXPECT_DOUBLE_EQ(shard.total_rate_per_s, 10.0);
        EXPECT_EQ(shard.seed, sim::Rng::stream_seed(99, s));
        total += shard.limit;
    }
    EXPECT_EQ(total, base.limit);  // 10 = 4 + 3 + 3
    EXPECT_EQ(workload::PoissonStream::shard_options(base, 0, 3).limit, 4u);
    EXPECT_THROW(workload::PoissonStream::shard_options(base, 3, 3),
                 std::invalid_argument);
    EXPECT_THROW(workload::PoissonStream::shard_options(base, 0, 0),
                 std::invalid_argument);
}

TEST(StreamShardingTest, ShardStreamPrefixStableAsShardCountGrows) {
    // Shard `s` draws from stream_seed(seed, s) regardless of the total
    // shard count, so shard 1's arrival *pattern* is a function of its id
    // alone (rates differ, but the underlying draw sequence is the id's).
    workload::PoissonStream::Options base;
    base.services = 4;
    base.limit = 12;
    base.total_rate_per_s = 12.0;
    const auto of2 = workload::PoissonStream::shard_options(base, 1, 2);
    const auto of4 = workload::PoissonStream::shard_options(base, 1, 4);
    EXPECT_EQ(of2.seed, of4.seed);
}

TEST(StreamShardingTest, PumpDeliversWholeStreamInOrder) {
    workload::PoissonStream::Options options;
    options.services = 3;
    options.limit = 50;
    options.total_rate_per_s = 100.0;
    options.seed = 5;
    workload::PoissonStream stream(options);

    sim::Simulation sim;
    std::vector<sim::SimTime> arrivals;
    workload::StreamPump pump(
        sim, stream,
        [&](const workload::TraceEvent& event,
            const std::optional<workload::TraceEvent>& next) {
            EXPECT_EQ(sim.now(), event.at);
            if (next) EXPECT_GE(next->at, event.at);
            arrivals.push_back(event.at);
        });
    EXPECT_FALSE(pump.done());
    pump.start();
    sim.run();
    EXPECT_TRUE(pump.done());
    EXPECT_EQ(pump.delivered(), 50u);
    ASSERT_EQ(arrivals.size(), 50u);
    EXPECT_TRUE(std::is_sorted(arrivals.begin(), arrivals.end()));
}

// ------------------------------------------------------------------- logs

TEST(LogBufferTest, FlushMatchesDefaultSinkFormat) {
    sim::Simulation sim;
    sim::LogBuffer buffer;
    sim::Logger logger(sim, "comp", sim::LogLevel::kInfo);
    logger.set_sink(buffer.sink());

    sim.schedule(sim::milliseconds(3), [&] { logger.info("hello"); });
    sim.schedule(sim::milliseconds(7), [&] { logger.warn("uh oh"); });
    sim.run();

    ASSERT_EQ(buffer.size(), 2u);
    EXPECT_EQ(buffer.entries()[0].seq, 0u);
    EXPECT_EQ(buffer.entries()[1].seq, 1u);
    std::ostringstream os;
    buffer.flush_to(os);
    // Byte-for-byte the default stderr sink's format.
    EXPECT_EQ(os.str(),
              "[3.000ms] INFO comp: hello\n"
              "[7.000ms] WARN comp: uh oh\n");
    EXPECT_TRUE(buffer.empty());  // flush drains
}

TEST(LogBufferTest, CoordinatorFlushesDomainsInIdOrder) {
    for (const SyncMode sync : kSyncModes) {
        SCOPED_TRACE(sync_name(sync));
        ShardedSimulation sharded(options_with(sim::milliseconds(1), 2, 1, sync));
        auto& a = sharded.add_domain("a");
        auto& b = sharded.add_domain("b");
        auto log_a = a.make_logger("a", sim::LogLevel::kInfo);
        auto log_b = b.make_logger("b", sim::LogLevel::kInfo);
        // `b` logs earlier in virtual time, but flush order is domain id
        // order (deterministic), not timestamp order.
        a.sim().schedule(sim::milliseconds(9), [&] { log_a.info("from a"); });
        b.sim().schedule(sim::milliseconds(2), [&] { log_b.info("from b"); });
        sharded.run();

        std::ostringstream os;
        sharded.flush_logs(os);
        EXPECT_EQ(os.str(),
                  "[9.000ms] INFO a: from a\n"
                  "[2.000ms] INFO b: from b\n");
    }
}

} // namespace
} // namespace tedge

// Hybrid-fidelity tests (DESIGN §9): the AggregateEpoch grid, FlowMemory's
// fluid cohorts (promote/demote, anonymous admission, epoch-boundary expiry,
// idle-notification parity), the FluidPoissonStream workload, and the
// end-to-end differential -- a platform run under hybrid fidelity must make
// the same dispatch decisions, at the same virtual instants, with the same
// idle scale-downs, as the exact run.
#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "core/edge_platform.hpp"
#include "sdn/flow_memory.hpp"
#include "simcore/aggregate_epoch.hpp"
#include "simcore/random.hpp"
#include "workload/stream.hpp"

namespace tedge::sdn {
namespace {

using sim::milliseconds;
using sim::seconds;

// ---------------------------------------------------------------- epoch grid

TEST(AggregateEpochTest, GridHooksRoundToPeriodMultiples) {
    sim::Simulation sim;
    sim::AggregateEpoch epoch(sim, milliseconds(100));
    EXPECT_EQ(epoch.period(), milliseconds(100));

    EXPECT_EQ(epoch.floor(sim::SimTime::zero()), sim::SimTime::zero());
    EXPECT_EQ(epoch.floor(milliseconds(99)), sim::SimTime::zero());
    EXPECT_EQ(epoch.floor(milliseconds(100)), milliseconds(100));
    EXPECT_EQ(epoch.floor(milliseconds(150)), milliseconds(100));

    EXPECT_EQ(epoch.ceil(sim::SimTime::zero()), sim::SimTime::zero());
    EXPECT_EQ(epoch.ceil(milliseconds(1)), milliseconds(100));
    EXPECT_EQ(epoch.ceil(milliseconds(100)), milliseconds(100));
    EXPECT_EQ(epoch.ceil(milliseconds(101)), milliseconds(200));

    // next_after is strict: a flow installed exactly on the grid refreshes
    // at the *next* boundary, not its own install instant.
    EXPECT_EQ(epoch.next_after(sim::SimTime::zero()), milliseconds(100));
    EXPECT_EQ(epoch.next_after(milliseconds(100)), milliseconds(200));
    EXPECT_EQ(epoch.next_after(milliseconds(150)), milliseconds(200));
}

TEST(AggregateEpochTest, TicksFireOnlyWhileRequested) {
    sim::Simulation sim;
    sim::AggregateEpoch epoch(sim, milliseconds(100));
    std::vector<sim::SimTime> ticks;
    epoch.subscribe([&](sim::SimTime tick) { ticks.push_back(tick); });

    // Nothing requested: an idle hybrid run schedules no kernel events.
    sim.run_until(seconds(1));
    EXPECT_EQ(epoch.ticks_fired(), 0u);
    EXPECT_FALSE(sim.has_pending_events());

    // Arm 350 ms ahead: ticks at the three grid instants in that window.
    epoch.request_ticks_until(sim.now() + milliseconds(350));
    EXPECT_EQ(epoch.horizon(), milliseconds(1300)); // floor(1s + 350ms)
    sim.run_until(seconds(2));
    EXPECT_EQ(epoch.ticks_fired(), 3u);
    ASSERT_EQ(ticks.size(), 3u);
    EXPECT_EQ(ticks[0], milliseconds(1100));
    EXPECT_EQ(ticks[1], milliseconds(1200));
    EXPECT_EQ(ticks[2], milliseconds(1300));
    EXPECT_FALSE(sim.has_pending_events()); // daemon re-arm stopped
}

TEST(AggregateEpochTest, UnsubscribeStopsDelivery) {
    sim::Simulation sim;
    sim::AggregateEpoch epoch(sim, milliseconds(10));
    int a = 0;
    int b = 0;
    const auto id = epoch.subscribe([&](sim::SimTime) { ++a; });
    epoch.subscribe([&](sim::SimTime) { ++b; });
    epoch.request_ticks_until(milliseconds(20));
    sim.run_until(milliseconds(30));
    EXPECT_EQ(a, 2);
    EXPECT_EQ(b, 2);
    epoch.unsubscribe(id);
    epoch.request_ticks_until(milliseconds(50)); // two more grid instants
    sim.run_until(milliseconds(60));
    EXPECT_EQ(a, 2); // unsubscribed: no further deliveries
    EXPECT_EQ(b, 4);
}

// ------------------------------------------------------------- fluid cohorts

MemorizedFlow make_flow(const std::string& service, std::uint32_t client_octet,
                        const std::string& cluster = "edge") {
    MemorizedFlow flow;
    flow.client_ip = net::Ipv4{10, 0, 1, static_cast<std::uint8_t>(client_octet)};
    flow.service_address = {net::Ipv4{203, 0, 113, 1}, 80};
    flow.service_name = service;
    flow.instance_node = net::NodeId{1};
    flow.instance_port = 8080;
    flow.cluster = cluster;
    return flow;
}

struct HybridMemoryFixture : ::testing::Test {
    HybridMemoryFixture()
        : memory(simulation, {.idle_timeout = seconds(60),
                              .scan_period = seconds(5),
                              .fidelity = Fidelity::kHybrid,
                              .epoch_period = milliseconds(100)}) {}

    sim::Simulation simulation;
    FlowMemory memory;
};

TEST_F(HybridMemoryFixture, EstablishedMemorizePromotesIntoCohort) {
    memory.memorize(make_flow("svc", 1), /*established=*/true);
    EXPECT_EQ(memory.size(), 1u);
    EXPECT_EQ(memory.fluid_flows(), 1u);
    EXPECT_EQ(memory.fluid_flows("svc", "edge"), 1u);
    // Fused counters: the Dispatcher-facing count does not care about
    // representation.
    EXPECT_EQ(memory.flows_for_service("svc"), 1u);
    EXPECT_EQ(memory.flows_for_service("svc", "edge"), 1u);
}

TEST_F(HybridMemoryFixture, PromoteDemoteAreIdempotentFlagFlips) {
    memory.memorize(make_flow("svc", 1)); // cold start: exact
    EXPECT_EQ(memory.fluid_flows(), 0u);
    const net::Ipv4 ip{10, 0, 1, 1};
    const net::ServiceAddress addr{net::Ipv4{203, 0, 113, 1}, 80};

    EXPECT_TRUE(memory.promote(ip, addr));
    EXPECT_FALSE(memory.promote(ip, addr)); // already fluid
    EXPECT_EQ(memory.fluid_flows(), 1u);
    EXPECT_TRUE(memory.demote(ip, addr));
    EXPECT_FALSE(memory.demote(ip, addr)); // already exact
    EXPECT_EQ(memory.fluid_flows(), 0u);
    EXPECT_FALSE(memory.promote(net::Ipv4{10, 0, 1, 99}, addr)); // unknown
    EXPECT_EQ(memory.size(), 1u); // representation changes never add/drop flows
}

TEST(HybridFidelityTest, ExactModeRejectsFluidOperations) {
    sim::Simulation simulation;
    FlowMemory memory(simulation,
                      {.idle_timeout = seconds(60), .scan_period = seconds(5)});
    memory.memorize(make_flow("svc", 1), /*established=*/true); // hint ignored
    EXPECT_EQ(memory.fluid_flows(), 0u);
    EXPECT_EQ(memory.epoch(), nullptr);
    EXPECT_FALSE(memory.promote(net::Ipv4{10, 0, 1, 1},
                                {net::Ipv4{203, 0, 113, 1}, 80}));
    EXPECT_THROW(memory.admit_fluid("svc", "edge", net::NodeId{1}, 8080, 10),
                 std::logic_error);
}

TEST_F(HybridMemoryFixture, RecallDemotesFluidFlow) {
    // A fluid flow that re-appears is at a decision boundary again: recall()
    // must hand it back demoted, indistinguishable from an exact flow.
    memory.memorize(make_flow("svc", 1), /*established=*/true);
    ASSERT_EQ(memory.fluid_flows(), 1u);
    const auto recalled =
        memory.recall(net::Ipv4{10, 0, 1, 1}, {net::Ipv4{203, 0, 113, 1}, 80});
    ASSERT_TRUE(recalled);
    EXPECT_EQ(recalled->service_name, "svc");
    EXPECT_EQ(recalled->instance_port, 8080);
    EXPECT_EQ(memory.fluid_flows(), 0u); // demoted on the hit
    EXPECT_EQ(memory.size(), 1u);
    EXPECT_EQ(memory.hits(), 1u);
}

TEST_F(HybridMemoryFixture, FlowExpiringExactlyOnEpochBoundary) {
    // idle_timeout = 60 s is simultaneously an expiry-bucket boundary
    // (60 s / 5 s scan) and an epoch-grid instant (60 s / 100 ms): the flow
    // must expire at exactly 60 s -- the instant exact mode fires -- with one
    // idle notification, whether the flow is exact or fluid.
    std::vector<std::pair<std::string, sim::SimTime>> idle;
    memory.set_idle_service_callback(
        [&](const std::string& service, const std::string&) {
            idle.emplace_back(service, simulation.now());
        });
    memory.memorize(make_flow("svc", 1), /*established=*/true);
    ASSERT_EQ(memory.epoch()->floor(seconds(60)), seconds(60)); // on the grid

    simulation.run_until(seconds(59));
    EXPECT_EQ(memory.size(), 1u);
    EXPECT_TRUE(idle.empty());
    simulation.run_until(seconds(60));
    EXPECT_EQ(memory.size(), 0u);
    EXPECT_EQ(memory.fluid_flows(), 0u);
    ASSERT_EQ(idle.size(), 1u);
    EXPECT_EQ(idle[0].first, "svc");
    EXPECT_EQ(idle[0].second, seconds(60));
}

TEST_F(HybridMemoryFixture, AnonymousAdmissionFusesIntoCounters) {
    memory.memorize(make_flow("svc", 1)); // one exact cold start
    memory.admit_fluid("svc", "edge", net::NodeId{1}, 8080, 1000);
    EXPECT_EQ(memory.size(), 1001u);
    EXPECT_EQ(memory.fluid_flows(), 1000u);
    EXPECT_EQ(memory.fluid_flows("svc", "edge"), 1000u);
    EXPECT_EQ(memory.flows_for_service("svc"), 1001u);
    EXPECT_EQ(memory.flows_for_service("svc", "edge"), 1001u);

    // The whole population expires at its deadline; the cohort drains and
    // the service goes idle exactly once.
    std::vector<std::pair<std::string, sim::SimTime>> idle;
    memory.set_idle_service_callback(
        [&](const std::string& service, const std::string&) {
            idle.emplace_back(service, simulation.now());
        });
    simulation.run_until(seconds(120));
    EXPECT_EQ(memory.size(), 0u);
    EXPECT_EQ(memory.fluid_flows(), 0u);
    EXPECT_EQ(memory.flows_for_service("svc"), 0u);
    ASSERT_EQ(idle.size(), 1u);
    EXPECT_EQ(idle[0].second, seconds(60));
}

TEST_F(HybridMemoryFixture, LastFlowInBucketIdleNotificationParity) {
    // The parity claim, head on: a cohort of 1 exact + 4 anonymous flows must
    // produce the identical (service, cluster, instant) idle sequence as five
    // individually memorized exact flows. Run the exact twin on its own
    // kernel and compare the recorded sequences.
    sim::Simulation exact_sim;
    FlowMemory exact(exact_sim,
                     {.idle_timeout = seconds(60), .scan_period = seconds(5)});

    using Notice = std::tuple<std::string, std::string, std::int64_t>;
    std::vector<Notice> hybrid_idle;
    std::vector<Notice> exact_idle;
    memory.set_idle_service_callback(
        [&](const std::string& service, const std::string& cluster) {
            hybrid_idle.emplace_back(service, cluster, simulation.now().ns());
        });
    exact.set_idle_service_callback(
        [&](const std::string& service, const std::string& cluster) {
            exact_idle.emplace_back(service, cluster, exact_sim.now().ns());
        });

    // Same population, two representations. A second service on another
    // cluster stays live longer so ordering across cohorts is exercised too.
    memory.memorize(make_flow("svc", 1), /*established=*/false);
    memory.admit_fluid("svc", "edge", net::NodeId{1}, 8080, 4);
    for (std::uint32_t i = 1; i <= 5; ++i) exact.memorize(make_flow("svc", i));

    simulation.run_until(seconds(20));
    exact_sim.run_until(seconds(20));
    memory.memorize(make_flow("other", 9, "k8s"), /*established=*/true);
    exact.memorize(make_flow("other", 9, "k8s"));

    simulation.run_until(seconds(200));
    exact_sim.run_until(seconds(200));
    ASSERT_EQ(hybrid_idle.size(), 2u);
    EXPECT_EQ(hybrid_idle, exact_idle);
    EXPECT_EQ(memory.size(), exact.size());
}

TEST_F(HybridMemoryFixture, ForgetServiceCancelsAnonymousCohortMembers) {
    memory.admit_fluid("svc", "edge", net::NodeId{1}, 8080, 10);
    memory.memorize(make_flow("svc", 1), /*established=*/true);
    memory.memorize(make_flow("other", 2));
    EXPECT_EQ(memory.forget_service("svc"), 11u); // tracked + anonymous
    EXPECT_EQ(memory.size(), 1u);
    EXPECT_EQ(memory.fluid_flows(), 0u);
    EXPECT_EQ(memory.flows_for_service("svc"), 0u);

    // The stale filed drain must cancel silently: no idle notification for
    // "svc" when its (now empty) expiry run fires.
    std::vector<std::string> idle;
    memory.set_idle_service_callback(
        [&](const std::string& service, const std::string&) {
            idle.push_back(service);
        });
    simulation.run_until(seconds(120));
    ASSERT_EQ(idle.size(), 1u);
    EXPECT_EQ(idle[0], "other");
}

TEST_F(HybridMemoryFixture, CohortRateAdvancesLazilyWithoutKernelEvents) {
    // Two epochs of 50 admissions each, then a long silence. The EWMA must
    // fold the completed epochs -- and the decay across the idle gap -- on
    // the next query, with zero epoch ticks ever fired.
    memory.admit_fluid("svc", "edge", net::NodeId{1}, 8080, 50);
    simulation.run_until(milliseconds(100));
    memory.admit_fluid("svc", "edge", net::NodeId{1}, 8080, 50);
    simulation.run_until(milliseconds(250));

    const double rate = memory.fluid_rate_per_s("svc", "edge");
    // alpha = 0.25, both completed epochs carried 50 flows / 0.1 s = 500/s:
    // rate = 500 * (0.25 + 0.75 * 0.25) = 218.75.
    EXPECT_NEAR(rate, 218.75, 1e-9);

    simulation.run_until(seconds(10)); // ~97 arrival-free epochs
    EXPECT_LT(memory.fluid_rate_per_s("svc", "edge"), 1e-9);
    EXPECT_EQ(memory.epoch()->ticks_fired(), 0u); // all of it lazy
    EXPECT_EQ(memory.fluid_rate_per_s("nope", "edge"), 0.0);
}

// --------------------------------------------------------- fluid workload

TEST(RngPoissonTest, DeterministicAndUnbiased) {
    sim::Rng a(7);
    sim::Rng b(7);
    for (int i = 0; i < 100; ++i) EXPECT_EQ(a.poisson(4.2), b.poisson(4.2));

    // Sample means for both regimes (Knuth product below 32, normal
    // approximation above) land near the true mean.
    for (const double mean : {3.0, 250.0}) {
        sim::Rng rng(42);
        double sum = 0.0;
        const int n = 20'000;
        for (int i = 0; i < n; ++i) sum += static_cast<double>(rng.poisson(mean));
        EXPECT_NEAR(sum / n, mean, mean * 0.05) << "mean " << mean;
    }
    sim::Rng rng(1);
    EXPECT_EQ(rng.poisson(0.0), 0u);
}

TEST(FluidPoissonStreamTest, EmitsExactFlowTotalOnEpochGrid) {
    workload::FluidPoissonStream::Options options;
    options.services = 8;
    options.clients = 16;
    options.total_rate_per_s = 5000.0;
    options.limit = 20'000;
    options.seed = 42;
    options.epoch_period = milliseconds(100);
    workload::FluidPoissonStream stream(options);

    std::uint64_t flows = 0;
    std::size_t events = 0;
    std::vector<bool> cold_seen(options.services, false);
    sim::SimTime prev = sim::SimTime::zero();
    while (auto event = stream.next()) {
        ++events;
        flows += event->count;
        EXPECT_GE(event->at, prev); // nondecreasing merge
        prev = event->at;
        ASSERT_LT(event->service, options.services);
        ASSERT_LT(event->client, options.clients);
        if (!cold_seen[event->service]) {
            // The service's first arrival is the exact cold start.
            EXPECT_EQ(event->count, 1u) << "service " << event->service;
            cold_seen[event->service] = true;
        } else {
            // Warm arrivals are per-epoch batches on the grid.
            EXPECT_GT(event->count, 0u);
            EXPECT_EQ(event->at.ns() % options.epoch_period.ns(), 0);
        }
    }
    EXPECT_EQ(flows, options.limit); // clamped to the budget exactly
    EXPECT_EQ(stream.flows_emitted(), options.limit);
    // The point of the fluid stream: orders of magnitude fewer events.
    EXPECT_LT(events, options.limit / 10);
}

TEST(FluidPoissonStreamTest, DeterministicPerSeed) {
    workload::FluidPoissonStream::Options options;
    options.services = 4;
    options.total_rate_per_s = 2000.0;
    options.limit = 5'000;
    options.seed = 7;
    workload::FluidPoissonStream a(options);
    workload::FluidPoissonStream b(options);
    while (true) {
        const auto ea = a.next();
        const auto eb = b.next();
        ASSERT_EQ(ea.has_value(), eb.has_value());
        if (!ea) break;
        EXPECT_EQ(ea->at, eb->at);
        EXPECT_EQ(ea->service, eb->service);
        EXPECT_EQ(ea->client, eb->client);
        EXPECT_EQ(ea->count, eb->count);
    }
}

// ------------------------------------------------- end-to-end differential

/// Everything observable about a platform run that the hybrid fast path must
/// reproduce: per-request outcomes with their virtual completion instants,
/// the dispatcher decision counters, FlowMemory traffic, idle scale-downs,
/// and the final clock.
struct RunDigest {
    std::vector<std::tuple<bool, std::uint64_t, std::int64_t>> requests;
    std::uint64_t packet_ins = 0;
    std::uint64_t memory_hits = 0;
    std::uint64_t deployed_waiting = 0;
    std::uint64_t flow_memory_hits = 0;
    std::uint64_t flow_memory_misses = 0;
    std::uint64_t idle_scale_downs = 0;
    std::int64_t final_now_ns = 0;

    bool operator==(const RunDigest&) const = default;
};

/// The fig. 2 loop in miniature: cold start, switch-entry expiry, memory-hit
/// re-dispatch (the established path hybrid promotes), then idle scale-down.
RunDigest run_differential_scenario(Fidelity fidelity) {
    sim::Simulation sim;
    core::EdgePlatform platform(sim, {});
    std::vector<net::NodeId> clients;
    for (std::uint32_t i = 1; i <= 3; ++i) {
        clients.push_back(platform.add_client(
            "client" + std::to_string(i),
            net::Ipv4{10, 0, 1, static_cast<std::uint8_t>(i)}));
    }
    const auto edge =
        platform.add_edge_host("edge", net::Ipv4{10, 0, 0, 2}, 12);
    platform.add_cloud();

    auto& registry = platform.add_registry({.host = "docker.io"});
    container::Image image;
    image.ref = *container::ImageRef::parse("web:1");
    image.layers = container::make_layers("web", sim::mib(10), 2);
    registry.put(image);

    container::AppProfile app;
    app.name = "web";
    app.init_median = milliseconds(20);
    app.service_median = sim::microseconds(200);
    app.port = 80;
    platform.add_app_profile("web:1", app);
    platform.add_docker_cluster("edge", edge);

    const net::ServiceAddress address{net::Ipv4{203, 0, 113, 9}, 80};
    platform.register_service(address, R"(
kind: Deployment
spec:
  template:
    spec:
      containers:
        - name: web
          image: web:1
          ports:
            - containerPort: 80
)");

    ControllerConfig config;
    config.fidelity = fidelity;
    config.dispatcher.switch_idle_timeout = seconds(1); // switch forgets fast
    config.flow_memory.idle_timeout = seconds(30);
    config.flow_memory.scan_period = seconds(5);
    platform.start_controller(edge, config);

    RunDigest digest;
    auto request_all = [&] {
        for (const auto client : clients) {
            platform.http_request(client, address, 100,
                                  [&, client](const net::HttpResult& r) {
                digest.requests.emplace_back(r.ok, r.server_node.value,
                                             sim.now().ns());
            });
        }
    };

    request_all();                    // cold starts: deploy-and-wait
    sim.run_until(seconds(10));       // switch entries idle out at 1 s
    platform.ingress().table().expire(sim.now());
    request_all();                    // memory hits: the established path
    sim.run_until(seconds(15));
    request_all();                    // still-live memory entries, touched
    sim.run_until(seconds(120));      // everything idles out; scale-down

    const auto& stats = platform.controller().dispatcher().stats();
    digest.packet_ins = stats.packet_ins;
    digest.memory_hits = stats.memory_hits;
    digest.deployed_waiting = stats.deployed_waiting;
    digest.flow_memory_hits = platform.controller().flow_memory().hits();
    digest.flow_memory_misses = platform.controller().flow_memory().misses();
    digest.idle_scale_downs = platform.controller().idle_scale_downs();
    digest.final_now_ns = sim.now().ns();
    return digest;
}

TEST(HybridDifferentialTest, HybridReproducesExactRun) {
    const auto exact = run_differential_scenario(Fidelity::kExact);

    // The scenario exercised what it claims to: real deployments, real
    // memory hits, real idle scale-downs.
    ASSERT_EQ(exact.requests.size(), 9u);
    for (const auto& [ok, server, at_ns] : exact.requests) {
        EXPECT_TRUE(ok);
    }
    EXPECT_GT(exact.deployed_waiting, 0u);
    EXPECT_GT(exact.memory_hits, 0u);
    EXPECT_GT(exact.idle_scale_downs, 0u);

    EXPECT_EQ(run_differential_scenario(Fidelity::kHybrid), exact)
        << "hybrid diverged from exact";
}

} // namespace
} // namespace tedge::sdn

// Bulk-admission tests (DESIGN §9), the machinery behind bench_scale's
// hybrid rows: FlowMemory::admit_fluid on a default-config FlowMemory
// (counter fusion, expiry-boundary timing, idle-notification parity with
// per-flow records, forget_service cancellation), the Poisson sampler and
// the FluidPoissonStream workload.
#include <gtest/gtest.h>

#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "sdn/flow_memory.hpp"
#include "simcore/random.hpp"
#include "workload/stream.hpp"

namespace tedge::sdn {
namespace {

using sim::milliseconds;
using sim::seconds;

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

/// A default-config FlowMemory (60 s idle timeout, 5 s scan period): bulk
/// admission needs no mode switch.
struct HybridMemoryFixture : ::testing::Test {
    HybridMemoryFixture() : memory(simulation, {}) {}

    sim::Simulation simulation;
    FlowMemory memory;
};

TEST_F(HybridMemoryFixture, FlowExpiringExactlyOnEpochBoundary) {
    // idle_timeout = 60 s lands exactly on an expiry-bucket boundary
    // (60 s / 5 s scan): the flow must expire at exactly 60 s, not one scan
    // period later, with one idle notification.
    std::vector<std::pair<std::string, sim::SimTime>> idle;
    memory.set_idle_service_callback(
        [&](const std::string& service, const std::string&) {
            idle.emplace_back(service, simulation.now());
        });
    memory.memorize(make_flow("svc", 1));

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
    memory.memorize(make_flow("svc", 1)); // one per-flow cold start
    memory.admit_fluid("svc", "edge", 1000);
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
    // The parity claim, head on: a cohort of 1 memorized + 4 anonymous flows
    // must produce the identical (service, cluster, instant) idle sequence as
    // five individually memorized flows. Run the per-flow twin on its own
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
    memory.memorize(make_flow("svc", 1));
    memory.admit_fluid("svc", "edge", 4);
    for (std::uint32_t i = 1; i <= 5; ++i) exact.memorize(make_flow("svc", i));

    simulation.run_until(seconds(20));
    exact_sim.run_until(seconds(20));
    memory.memorize(make_flow("other", 9, "k8s"));
    exact.memorize(make_flow("other", 9, "k8s"));

    simulation.run_until(seconds(200));
    exact_sim.run_until(seconds(200));
    ASSERT_EQ(hybrid_idle.size(), 2u);
    EXPECT_EQ(hybrid_idle, exact_idle);
    EXPECT_EQ(memory.size(), exact.size());
}

TEST_F(HybridMemoryFixture, ForgetServiceCancelsAnonymousCohortMembers) {
    memory.admit_fluid("svc", "edge", 10);
    memory.memorize(make_flow("svc", 1));
    memory.memorize(make_flow("other", 2));
    EXPECT_EQ(memory.forget_service("svc"), 11u); // pool record + anonymous
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

} // namespace
} // namespace tedge::sdn

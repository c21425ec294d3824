// FlowMemory tests: memorize/recall with idle timeouts, expiry scanning,
// and the idle-service callback that drives scale-down.
#include <gtest/gtest.h>

#include <map>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "sdn/flow_memory.hpp"
#include "simcore/random.hpp"

namespace tedge::sdn {
namespace {

using sim::seconds;

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

struct FlowMemoryFixture : ::testing::Test {
    FlowMemoryFixture()
        : memory(simulation, {.idle_timeout = seconds(60), .scan_period = seconds(5)}) {}

    sim::Simulation simulation;
    FlowMemory memory;
};

TEST_F(FlowMemoryFixture, RecallReturnsMemorizedFlow) {
    memory.memorize(make_flow("svc", 1));
    const auto recalled =
        memory.recall(net::Ipv4{10, 0, 1, 1}, {net::Ipv4{203, 0, 113, 1}, 80});
    ASSERT_TRUE(recalled);
    EXPECT_EQ(memory.symbols().name(recalled->service), "svc");
    EXPECT_EQ(recalled->instance_port, 8080);
    EXPECT_EQ(memory.hits(), 1u);
}

TEST_F(FlowMemoryFixture, RecallMissesUnknownOrDifferentClient) {
    memory.memorize(make_flow("svc", 1));
    EXPECT_FALSE(
        memory.recall(net::Ipv4{10, 0, 1, 2}, {net::Ipv4{203, 0, 113, 1}, 80}));
    EXPECT_FALSE(
        memory.recall(net::Ipv4{10, 0, 1, 1}, {net::Ipv4{203, 0, 113, 9}, 80}));
    EXPECT_EQ(memory.misses(), 2u);
}

TEST_F(FlowMemoryFixture, RecallTouchesIdleTimer) {
    memory.memorize(make_flow("svc", 1));
    // Touch at t=50s keeps it alive until 110s.
    simulation.run_until(seconds(50));
    EXPECT_TRUE(memory.recall(net::Ipv4{10, 0, 1, 1}, {net::Ipv4{203, 0, 113, 1}, 80}));
    simulation.run_until(seconds(100));
    EXPECT_TRUE(memory.recall(net::Ipv4{10, 0, 1, 1}, {net::Ipv4{203, 0, 113, 1}, 80}));
    simulation.run_until(seconds(170));
    EXPECT_FALSE(
        memory.recall(net::Ipv4{10, 0, 1, 1}, {net::Ipv4{203, 0, 113, 1}, 80}));
}

TEST_F(FlowMemoryFixture, PeriodicScanExpiresStaleFlows) {
    memory.memorize(make_flow("svc", 1));
    EXPECT_EQ(memory.size(), 1u);
    simulation.run_until(seconds(70)); // the 5 s scans run automatically
    EXPECT_EQ(memory.size(), 0u);
}

TEST_F(FlowMemoryFixture, ExpiresExactlyOnBucketBoundary) {
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
    ASSERT_EQ(idle.size(), 1u);
    EXPECT_EQ(idle[0].first, "svc");
    EXPECT_EQ(idle[0].second, seconds(60));
}

TEST_F(FlowMemoryFixture, IdleCallbackFiresOncePerService) {
    std::vector<std::pair<std::string, std::string>> idle;
    memory.set_idle_service_callback(
        [&](const std::string& service, const std::string& cluster) {
            idle.emplace_back(service, cluster);
        });
    memory.memorize(make_flow("svc", 1));
    memory.memorize(make_flow("svc", 2));
    memory.memorize(make_flow("other", 3, "k8s"));
    simulation.run_until(seconds(100));
    ASSERT_EQ(idle.size(), 2u); // one per service despite two svc flows
    EXPECT_EQ(idle[0].second == "edge" ? idle[0].first : idle[1].first, "svc");
}

TEST_F(FlowMemoryFixture, IdleCallbackNotFiredWhileOtherFlowsAlive) {
    std::vector<std::string> idle;
    memory.set_idle_service_callback(
        [&](const std::string& service, const std::string&) {
            idle.push_back(service);
        });
    memory.memorize(make_flow("svc", 1));
    // Keep one flow of the same service alive by touching it regularly.
    auto keepalive = simulation.schedule_periodic(seconds(20), [&] {
        memory.memorize(make_flow("svc", 2));
    });
    simulation.run_until(seconds(100));
    EXPECT_TRUE(idle.empty());
    keepalive.cancel();
    simulation.run_until(seconds(200));
    EXPECT_EQ(idle.size(), 1u);
}

TEST_F(FlowMemoryFixture, IdleCallbackIsPerCluster) {
    // Regression: the same service deployed on two clusters. When the last
    // flow toward cluster "edge" expires while "k8s" still serves traffic,
    // the (svc, edge) idle notification MUST fire -- counting flows across
    // all clusters would suppress it and the edge instance would never be
    // scaled down.
    std::vector<std::pair<std::string, std::string>> idle;
    memory.set_idle_service_callback(
        [&](const std::string& service, const std::string& cluster) {
            idle.emplace_back(service, cluster);
        });
    memory.memorize(make_flow("svc", 1, "edge"));
    memory.memorize(make_flow("svc", 2, "k8s"));
    // Keep the k8s flow hot; the edge flow goes idle.
    auto keepalive = simulation.schedule_periodic(seconds(20), [&] {
        memory.memorize(make_flow("svc", 2, "k8s"));
    });
    simulation.run_until(seconds(100));
    keepalive.cancel();
    ASSERT_EQ(idle.size(), 1u);
    EXPECT_EQ(idle[0].first, "svc");
    EXPECT_EQ(idle[0].second, "edge");
    EXPECT_EQ(memory.flows_for_service("svc", "edge"), 0u);
    EXPECT_EQ(memory.flows_for_service("svc", "k8s"), 1u);
    EXPECT_EQ(memory.flows_for_service("svc"), 1u);
}

TEST_F(FlowMemoryFixture, StaleRecallErasesEntrySoCreatedResets) {
    // Scan slower than the idle timeout so recall() observes the stale entry
    // before the periodic scan collects it.
    FlowMemory slow(simulation,
                    {.idle_timeout = seconds(60), .scan_period = seconds(1000)});
    slow.memorize(make_flow("svc", 1));
    simulation.run_until(seconds(70)); // 70 s idle > 60 s timeout: stale
    EXPECT_FALSE(
        slow.recall(net::Ipv4{10, 0, 1, 1}, {net::Ipv4{203, 0, 113, 1}, 80}));
    // The stale entry is erased, not just reported as a miss...
    EXPECT_EQ(slow.size(), 0u);
    // ...so a fresh memorize() gets a fresh `created` stamp instead of
    // inheriting the dead flow's.
    slow.memorize(make_flow("svc", 1));
    const auto* entry =
        slow.peek(net::Ipv4{10, 0, 1, 1}, {net::Ipv4{203, 0, 113, 1}, 80});
    ASSERT_NE(entry, nullptr);
    EXPECT_EQ(entry->created, seconds(70));
}

TEST_F(FlowMemoryFixture, ForgetServiceDropsAllItsFlows) {
    memory.memorize(make_flow("svc", 1));
    memory.memorize(make_flow("svc", 2));
    memory.memorize(make_flow("other", 3));
    EXPECT_EQ(memory.flows_for_service("svc"), 2u);
    EXPECT_EQ(memory.forget_service("svc"), 2u);
    EXPECT_EQ(memory.flows_for_service("svc"), 0u);
    EXPECT_EQ(memory.size(), 1u);
}

TEST_F(FlowMemoryFixture, MemorizeRefreshesExistingEntry) {
    memory.memorize(make_flow("svc", 1));
    auto updated = make_flow("svc", 1);
    updated.instance_port = 9999;
    simulation.run_until(seconds(30));
    memory.memorize(updated);
    const auto recalled =
        memory.recall(net::Ipv4{10, 0, 1, 1}, {net::Ipv4{203, 0, 113, 1}, 80});
    ASSERT_TRUE(recalled);
    EXPECT_EQ(recalled->instance_port, 9999);
    EXPECT_EQ(memory.size(), 1u);
}

TEST_F(FlowMemoryFixture, PeekDoesNotTouch) {
    memory.memorize(make_flow("svc", 1));
    simulation.run_until(seconds(50));
    EXPECT_NE(memory.peek(net::Ipv4{10, 0, 1, 1}, {net::Ipv4{203, 0, 113, 1}, 80}),
              nullptr);
    simulation.run_until(seconds(70)); // 60 s after memorize: expired
    EXPECT_FALSE(
        memory.recall(net::Ipv4{10, 0, 1, 1}, {net::Ipv4{203, 0, 113, 1}, 80}));
}

TEST_F(FlowMemoryFixture, ForEachVisitsEveryLiveFlow) {
    memory.memorize(make_flow("svc", 1));
    memory.memorize(make_flow("other", 2, "k8s"));
    std::size_t visited = 0;
    memory.for_each([&](const MemorizedFlow& flow) {
        ++visited;
        EXPECT_TRUE(flow.service_name == "svc" || flow.service_name == "other");
    });
    EXPECT_EQ(visited, 2u);
}

TEST(FlowMemoryPropertyTest, CountersAgreeWithBruteForceRecount) {
    // Property test: under a randomized memorize / recall / expire / forget
    // sequence the O(1) per-service and per-(service, cluster) counters must
    // always agree with a brute-force recount of the actual live entries.
    sim::Simulation simulation;
    FlowMemory memory(simulation,
                      {.idle_timeout = sim::seconds(30), .scan_period = sim::seconds(7)});
    sim::Rng rng(42);

    const std::vector<std::string> services = {"alpha", "beta", "gamma", "delta"};
    const std::vector<std::string> clusters = {"edge", "k8s", "far-edge"};

    auto random_flow = [&] {
        MemorizedFlow flow;
        flow.client_ip = net::Ipv4{
            static_cast<std::uint32_t>(rng.uniform_int(1, 2000))};
        flow.service_address = {
            net::Ipv4{static_cast<std::uint32_t>(rng.uniform_int(1, 40))}, 80};
        flow.service_name =
            services[static_cast<std::size_t>(rng.uniform_int(0, 3))];
        flow.cluster = clusters[static_cast<std::size_t>(rng.uniform_int(0, 2))];
        flow.instance_node = net::NodeId{1};
        flow.instance_port = 8080;
        return flow;
    };

    auto recount = [&] {
        std::map<std::string, std::size_t> by_service;
        std::map<std::pair<std::string, std::string>, std::size_t> by_pair;
        std::size_t total = 0;
        memory.for_each([&](const MemorizedFlow& flow) {
            ++by_service[flow.service_name];
            ++by_pair[{flow.service_name, flow.cluster}];
            ++total;
        });
        ASSERT_EQ(memory.size(), total);
        for (const auto& service : services) {
            EXPECT_EQ(memory.flows_for_service(service), by_service[service])
                << "service " << service;
            for (const auto& cluster : clusters) {
                EXPECT_EQ(memory.flows_for_service(service, cluster),
                          (by_pair[{service, cluster}]))
                    << service << "@" << cluster;
            }
        }
    };

    for (int step = 0; step < 3000; ++step) {
        const auto op = rng.uniform_int(0, 9);
        if (op < 6) {
            memory.memorize(random_flow());
        } else if (op < 8) {
            const auto probe = random_flow();
            (void)memory.recall(probe.client_ip, probe.service_address);
        } else if (op == 8) {
            memory.forget_service(
                services[static_cast<std::size_t>(rng.uniform_int(0, 3))]);
        } else {
            // Advance virtual time so the periodic scan expires stale flows.
            simulation.run_until(simulation.now() +
                                 sim::seconds(rng.uniform_int(1, 20)));
        }
        if (step % 100 == 0) recount();
    }
    recount();
}

TEST(FlowMemoryPropertyTest, IdPathMatchesNamedPath) {
    // The packet-in path memorizes and recalls by id; cold callers go through
    // MemorizedFlow. Under one randomized operation sequence both must leave
    // the same flows, in the same order, and fire the same idle callbacks.
    sim::Simulation simulation;
    const FlowMemory::Config config{.idle_timeout = sim::seconds(30),
                                    .scan_period = sim::seconds(7),
                                    .track_clients = true};
    FlowMemory named(simulation, config);
    FlowMemory by_id(simulation, config);
    using Idle = std::vector<std::pair<std::string, std::string>>;
    Idle named_idle;
    Idle by_id_idle;
    named.set_idle_service_callback([&](const std::string& s, const std::string& c) {
        named_idle.emplace_back(s, c);
    });
    by_id.set_idle_service_callback([&](const std::string& s, const std::string& c) {
        by_id_idle.emplace_back(s, c);
    });
    sim::Rng rng(7);

    const std::vector<std::string> services = {"alpha", "beta", "gamma"};
    const std::vector<std::string> clusters = {"edge", "k8s"};
    const auto random_flow = [&] {
        MemorizedFlow flow;
        flow.client_ip = net::Ipv4{static_cast<std::uint32_t>(rng.uniform_int(1, 30))};
        flow.service_address = {
            net::Ipv4{static_cast<std::uint32_t>(rng.uniform_int(1, 12))}, 80};
        flow.service_name = services[static_cast<std::size_t>(rng.uniform_int(0, 2))];
        flow.cluster = clusters[static_cast<std::size_t>(rng.uniform_int(0, 1))];
        flow.instance_node = net::NodeId{static_cast<std::uint32_t>(rng.uniform_int(1, 3))};
        flow.instance_port = static_cast<std::uint16_t>(rng.uniform_int(8000, 8003));
        // Now and then an adopted flow that keeps its creation time.
        if (rng.uniform_int(0, 9) == 0) flow.created = sim::SimTime{simulation.now().ns() / 2 + 1};
        return flow;
    };
    const auto view = [](const MemorizedFlow& f) {
        return std::make_tuple(f.client_ip.value(), f.service_address.ip.value(),
                               f.service_address.port, f.service_name,
                               f.instance_node.value, f.instance_port, f.cluster,
                               f.created.ns(), f.last_used.ns());
    };
    using View = decltype(view(MemorizedFlow{}));
    const auto all = [&](const FlowMemory& memory) {
        std::vector<View> out;
        memory.for_each([&](const MemorizedFlow& f) { out.push_back(view(f)); });
        return out;
    };
    const auto of_client = [&](const FlowMemory& memory, std::uint32_t client) {
        std::vector<View> out;
        for (const auto& f : memory.flows_of_client(net::Ipv4{client})) {
            out.push_back(view(f));
        }
        return out;
    };
    const auto compare = [&] {
        ASSERT_EQ(all(named), all(by_id));
        for (std::uint32_t client = 1; client <= 30; ++client) {
            ASSERT_EQ(of_client(named, client), of_client(by_id, client)) << client;
        }
        ASSERT_EQ(named_idle, by_id_idle);
        ASSERT_EQ(named.hits(), by_id.hits());
        ASSERT_EQ(named.misses(), by_id.misses());
    };

    for (int step = 0; step < 4000; ++step) {
        const auto op = rng.uniform_int(0, 11);
        const MemorizedFlow flow = random_flow();
        if (op < 6) {
            named.memorize(flow);
            const FlowTarget target{by_id.intern(flow.service_name),
                                    by_id.intern(flow.cluster), flow.instance_node,
                                    flow.instance_port};
            by_id.memorize(flow.client_ip, by_id.address_id(flow.service_address),
                           target, flow.created);
        } else if (op < 9) {
            const auto a = named.recall(flow.client_ip, flow.service_address);
            const auto b = by_id.recall(flow.client_ip,
                                        by_id.address_id(flow.service_address));
            ASSERT_EQ(a.has_value(), b.has_value());
            if (a) {
                EXPECT_EQ(named.symbols().name(a->service), by_id.symbols().name(b->service));
                EXPECT_EQ(named.symbols().name(a->cluster), by_id.symbols().name(b->cluster));
                EXPECT_EQ(a->instance_node, b->instance_node);
                EXPECT_EQ(a->instance_port, b->instance_port);
            }
        } else if (op == 9) {
            EXPECT_EQ(named.forget_service(flow.service_name),
                      by_id.forget_service(by_id.intern(flow.service_name)));
        } else if (op == 10) {
            EXPECT_EQ(named.forget_flow(flow.client_ip, flow.service_address, true),
                      by_id.forget_flow(flow.client_ip, flow.service_address, true));
        } else {
            simulation.run_until(simulation.now() + sim::seconds(rng.uniform_int(1, 20)));
        }
        if (step % 50 == 0) compare();
    }
    compare();
    EXPECT_FALSE(named_idle.empty());
}

} // namespace
} // namespace tedge::sdn

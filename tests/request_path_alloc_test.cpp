// Heap allocations on the warm request path: TraceRunner -> HttpClient ->
// TcpNet -> OvsSwitch -> Docker endpoint -> response, with a MetricsRegistry
// attached. Each layer keeps its per-request state in a slot pool and its
// events capture only (owner, slot), so once the pools are warm a request
// allocates nothing; what a replay allocates at all is per-replay set-up
// (its client, tag list and record reserve). That holds on the switch's
// flow-table hit and on the packet-in path behind a miss: the dispatcher,
// FlowMemory, the scheduler and the flow install.
#include <gtest/gtest.h>

#include <cstdio>

#include "alloc_counter.hpp"
#include "simcore/metrics_registry.hpp"
#include "testbed/c3.hpp"
#include "workload/runner.hpp"

namespace tedge {
namespace {

constexpr std::size_t kRequests = 12'000;

struct WarmDockerService : ::testing::Test {
    /// Build the testbed with these idle timeouts and deploy the service.
    void start(sim::SimTime switch_idle, sim::SimTime memory_idle) {
        testbed::C3Options options;
        options.with_k8s = false;
        options.controller.dispatcher.switch_idle_timeout = switch_idle;
        options.controller.flow_memory.idle_timeout = memory_idle;
        tb = testbed::build_c3(options);
        auto& platform = tb->platform;
        platform.simulation().set_metrics(&registry);

        const auto& nginx = testbed::service_by_key("nginx");
        address = nginx.address;
        request_size = nginx.request_size;
        const auto& spec = platform.register_service(address, nginx.yaml).spec;
        bool ready = false;
        platform.deployment_engine().ensure(
            *platform.clusters().front(), spec, {},
            [&](bool ok, const orchestrator::InstanceInfo&) { ready = ok; });
        platform.simulation().run_while([&] { return !ready; });
        ASSERT_TRUE(ready);
    }

    /// `requests` arrivals 1 ms apart, cycling over the 20 clients: a client
    /// comes back every 20 ms.
    [[nodiscard]] workload::Trace make_trace(std::size_t requests) const {
        workload::Trace trace;
        for (std::size_t i = 0; i < requests; ++i) {
            trace.add({.at = sim::milliseconds(static_cast<std::int64_t>(i)),
                       .client = static_cast<std::uint32_t>(i % tb->clients.size()),
                       .service = 0});
        }
        trace.finalize();
        return trace;
    }

    /// Replay `trace` with a fresh runner; returns the failed requests.
    std::size_t replay(const workload::Trace& trace) {
        workload::TraceReplayOptions options;
        options.addresses = {address};
        options.request_sizes = {request_size};
        workload::TraceRunner runner(tb->platform, tb->clients);
        return runner.replay(trace, options).failures();
    }

    /// Warm-up: every path the replay takes runs, and the slot pools and
    /// tables reach their working size.
    void warm_up() { EXPECT_EQ(replay(make_trace(2'000)), 0u); }

    /// Replay kRequests requests; returns their allocations per request.
    double allocations_per_request(const char* what) {
        const workload::Trace trace = make_trace(kRequests);
        const std::uint64_t before = testkit::allocations();
        const std::size_t failed = replay(trace);
        const std::uint64_t allocations = testkit::allocations() - before;
        EXPECT_EQ(failed, 0u);
        const double per_request =
            static_cast<double>(allocations) / static_cast<double>(kRequests);
        std::printf("allocations per %s: %.4f (%llu over %zu)\n", what, per_request,
                    static_cast<unsigned long long>(allocations), kRequests);
        return per_request;
    }

    [[nodiscard]] std::uint64_t packet_ins() const {
        return tb->platform.ingress().packet_in_count();
    }
    [[nodiscard]] const sdn::FlowMemory& memory() {
        return tb->platform.controller().flow_memory();
    }

    // Declared before the testbed so it outlives every component holding
    // the simulation's pointer to it.
    sim::MetricsRegistry registry;
    std::unique_ptr<testbed::C3Testbed> tb;
    net::ServiceAddress address;
    sim::Bytes request_size = 0;
};

TEST_F(WarmDockerService, WarmRequestsDoNotAllocate) {
    // Long idle timeouts: every request after a client's first one is a
    // switch-table hit, and nothing scales down mid-replay.
    start(sim::seconds(3600), sim::seconds(3600));
    warm_up();
    EXPECT_LE(allocations_per_request("warm request"), 3.0);
    EXPECT_EQ(registry.find_counter("workload.requests_ok")->value(),
              2'000u + kRequests);
}

TEST_F(WarmDockerService, PacketInWithFlowMemoryHitDoesNotAllocate) {
    // The switch entry idles out between a client's requests, FlowMemory's
    // does not: every request is a packet-in answered from memory.
    start(sim::milliseconds(5), sim::seconds(3600));
    warm_up();
    const std::uint64_t packet_ins_before = packet_ins();
    const std::uint64_t hits_before = memory().hits();
    EXPECT_LE(allocations_per_request("packet-in with a FlowMemory hit"), 0.5);
    EXPECT_EQ(packet_ins() - packet_ins_before, kRequests);
    EXPECT_EQ(memory().hits() - hits_before, kRequests);
}

TEST_F(WarmDockerService, PacketInWithFlowMemoryMissDoesNotAllocate) {
    // Both entries idle out between a client's requests: every request is a
    // packet-in that misses FlowMemory, gathers the scheduling context and
    // asks the scheduler.
    start(sim::milliseconds(5), sim::milliseconds(5));
    warm_up();
    const std::uint64_t packet_ins_before = packet_ins();
    const std::uint64_t misses_before = memory().misses();
    EXPECT_LE(allocations_per_request("packet-in with a FlowMemory miss"), 0.5);
    EXPECT_EQ(packet_ins() - packet_ins_before, kRequests);
    EXPECT_EQ(memory().misses() - misses_before, kRequests);
}

} // namespace
} // namespace tedge

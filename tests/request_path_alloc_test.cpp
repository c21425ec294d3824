// Heap allocations on the warm request path: TraceRunner -> HttpClient ->
// TcpNet -> OvsSwitch flow-table hit -> Docker endpoint -> response, with a
// MetricsRegistry attached. Each layer keeps its per-request state in a slot
// pool and its events capture only (owner, slot), so once the pools are warm
// a request allocates nothing; what a replay allocates at all is per-replay
// set-up (its client, tag list and record reserve).
#include <gtest/gtest.h>

#include <cstdio>

#include "alloc_counter.hpp"
#include "simcore/metrics_registry.hpp"
#include "testbed/c3.hpp"
#include "workload/runner.hpp"

namespace tedge {
namespace {

struct WarmDockerService : ::testing::Test {
    void SetUp() override {
        testbed::C3Options options;
        options.with_k8s = false;
        // Long idle timeouts: every request after a client's first one is a
        // switch-table hit, and nothing scales down mid-replay.
        options.controller.dispatcher.switch_idle_timeout = sim::seconds(3600);
        options.controller.flow_memory.idle_timeout = sim::seconds(3600);
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

    /// `requests` arrivals 1 ms apart, cycling over the clients.
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

    // Declared before the testbed so it outlives every component holding
    // the simulation's pointer to it.
    sim::MetricsRegistry registry;
    std::unique_ptr<testbed::C3Testbed> tb;
    net::ServiceAddress address;
    sim::Bytes request_size = 0;
};

TEST_F(WarmDockerService, WarmRequestsDoNotAllocate) {
    // Warm-up: every client's first request takes the packet-in path and
    // installs its switch entry; the slot pools reach their working size.
    ASSERT_EQ(replay(make_trace(2'000)), 0u);

    constexpr std::size_t kRequests = 12'000;
    const workload::Trace trace = make_trace(kRequests);
    const std::uint64_t before = testkit::allocations();
    const std::size_t failed = replay(trace);
    const std::uint64_t allocations = testkit::allocations() - before;
    ASSERT_EQ(failed, 0u);

    const double per_request =
        static_cast<double>(allocations) / static_cast<double>(kRequests);
    std::printf("allocations per warm request: %.4f (%llu over %zu)\n", per_request,
                static_cast<unsigned long long>(allocations), kRequests);
    EXPECT_LE(per_request, 3.0);
    EXPECT_EQ(registry.find_counter("workload.requests_ok")->value(),
              2'000u + kRequests);
}

} // namespace
} // namespace tedge

// Property-style sweeps over the WASM runtime: cold-start scaling, warm-hit
// ratios under different arrival patterns, and instance-cap behaviour.
#include <gtest/gtest.h>

#include "serverless/wasm_runtime.hpp"
#include "reply_callbacks.hpp"

namespace tedge::serverless {
namespace {

using sim::milliseconds;
using sim::seconds;

struct RuntimeSweepFixture : ::testing::Test {
    RuntimeSweepFixture() {
        node = topo.add_host("edge", net::Ipv4{10, 0, 0, 2}, 12);
        runtime = std::make_unique<WasmRuntime>(simulation, topo, node, endpoints,
                                                sim::Rng{3});
        app.name = "fn";
        app.service_median = milliseconds(2);
        app.service_sigma = 0.1;
        app.response_size = 128;
        app.port = 8080;
    }

    FunctionSpec function(const std::string& name, int max_instances = 64) {
        FunctionSpec fn;
        fn.name = name;
        fn.module = *container::ImageRef::parse(name + ":1");
        fn.app = &app;
        fn.max_instances = max_instances;
        return fn;
    }

    sim::Simulation simulation;
    net::Topology topo;
    net::EndpointDirectory endpoints;
    net::NodeId node;
    container::AppProfile app;
    std::unique_ptr<WasmRuntime> runtime;
};

class BurstSweep : public RuntimeSweepFixture,
                   public ::testing::WithParamInterface<int> {};

TEST_P(BurstSweep, ColdStartsBoundedByBurstWidth) {
    const int burst = GetParam();
    bool deployed = false;
    runtime->deploy(function("fn"), 9000, [&] { deployed = true; });
    simulation.run();
    ASSERT_TRUE(deployed);

    const auto handler = endpoints.find(node, 9000);
    testkit::ReplyCallbacks replies;
    int completed = 0;
    for (int i = 0; i < burst; ++i) {
        (*handler)(64, replies([&](sim::Bytes) { ++completed; }));
    }
    simulation.run();
    EXPECT_EQ(completed, burst);
    // Every concurrent request in the burst needed its own instance (no
    // warm pool yet), so cold starts == burst width...
    EXPECT_EQ(runtime->cold_starts(), static_cast<std::uint64_t>(burst));
    // ...and all instances are warm afterwards.
    EXPECT_EQ(runtime->warm_instances("fn"), burst);

    // A second identical burst is served entirely warm.
    for (int i = 0; i < burst; ++i) {
        (*handler)(64, replies([&](sim::Bytes) { ++completed; }));
    }
    simulation.run();
    EXPECT_EQ(completed, 2 * burst);
    EXPECT_EQ(runtime->cold_starts(), static_cast<std::uint64_t>(burst));
    EXPECT_EQ(runtime->invocations(), static_cast<std::uint64_t>(2 * burst));
}

INSTANTIATE_TEST_SUITE_P(Widths, BurstSweep, ::testing::Values(1, 2, 4, 8, 16));

TEST_F(RuntimeSweepFixture, SequentialRequestsUseOneInstance) {
    runtime->deploy(function("fn"), 9000, [] {});
    simulation.run();
    const auto handler = endpoints.find(node, 9000);
    testkit::ReplyCallbacks replies;
    for (int i = 0; i < 10; ++i) {
        bool done = false;
        (*handler)(64, replies([&](sim::Bytes) { done = true; }));
        simulation.run();
        ASSERT_TRUE(done);
    }
    EXPECT_EQ(runtime->cold_starts(), 1u);
    EXPECT_EQ(runtime->warm_instances("fn"), 1);
}

TEST_F(RuntimeSweepFixture, CapSerializesExcessLoad) {
    runtime->deploy(function("fn", /*max_instances=*/2), 9000, [] {});
    simulation.run();
    const auto handler = endpoints.find(node, 9000);
    testkit::ReplyCallbacks replies;
    std::vector<sim::SimTime> completions;
    for (int i = 0; i < 6; ++i) {
        (*handler)(64, replies([&](sim::Bytes) {
            completions.push_back(simulation.now());
        }));
    }
    simulation.run();
    ASSERT_EQ(completions.size(), 6u);
    // With 2 instances and ~2 ms service time, 6 requests take ~3 waves.
    EXPECT_GT(completions.back() - completions.front(), milliseconds(3));
    EXPECT_LE(runtime->cold_starts(), 2u);
}

TEST_F(RuntimeSweepFixture, TwoFunctionsAreIsolated) {
    runtime->deploy(function("a"), 9000, [] {});
    runtime->deploy(function("b"), 9001, [] {});
    simulation.run();
    const auto ha = endpoints.find(node, 9000);
    const auto hb = endpoints.find(node, 9001);
    testkit::ReplyCallbacks replies;
    int done = 0;
    (*ha)(64, replies([&](sim::Bytes) { ++done; }));
    (*hb)(64, replies([&](sim::Bytes) { ++done; }));
    simulation.run();
    EXPECT_EQ(done, 2);
    EXPECT_EQ(runtime->warm_instances("a"), 1);
    EXPECT_EQ(runtime->warm_instances("b"), 1);
    runtime->remove("a", [] {});
    simulation.run();
    EXPECT_FALSE(runtime->deployed("a"));
    EXPECT_TRUE(runtime->deployed("b"));
    EXPECT_EQ(endpoints.find(node, 9000), nullptr);
    EXPECT_NE(endpoints.find(node, 9001), nullptr);
}

TEST_F(RuntimeSweepFixture, RedeploySameModuleSkipsLoad) {
    bool first = false;
    const sim::SimTime t0 = simulation.now();
    runtime->deploy(function("fn"), 9000, [&] { first = true; });
    simulation.run();
    ASSERT_TRUE(first);
    const sim::SimTime first_duration = simulation.now() - t0;

    // Redeploy (e.g. config change): module already compiled.
    const sim::SimTime t1 = simulation.now();
    bool second = false;
    runtime->deploy(function("fn"), 9000, [&] { second = true; });
    simulation.run();
    ASSERT_TRUE(second);
    EXPECT_LT(simulation.now() - t1, first_duration);
}

} // namespace
} // namespace tedge::serverless

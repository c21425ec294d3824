// Dispatcher and Controller unit tests on a small real platform: packet-in
// handling paths, FlowMemory fast path, cookie-based flow invalidation, and
// cloud flows.
#include <gtest/gtest.h>

#include "core/edge_platform.hpp"

namespace tedge::sdn {
namespace {

using sim::milliseconds;
using sim::seconds;

struct DispatcherFixture : ::testing::Test {
    DispatcherFixture() {
        client = platform.add_client("client", net::Ipv4{10, 0, 1, 1});
        edge = platform.add_edge_host("edge", net::Ipv4{10, 0, 0, 2}, 12);
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
        address = {net::Ipv4{203, 0, 113, 9}, 80};
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
    }

    void start(ControllerConfig config = {}) {
        platform.start_controller(edge, std::move(config));
    }

    net::HttpResult request_and_wait(net::NodeId from,
                                     const net::ServiceAddress& to) {
        net::HttpResult result;
        bool done = false;
        platform.http_request(from, to, 100, [&](const net::HttpResult& r) {
            result = r;
            done = true;
        });
        while (!done) {
            platform.simulation().run_until(platform.simulation().now() + seconds(1));
        }
        return result;
    }

    core::EdgePlatform platform;
    net::NodeId client, edge;
    net::ServiceAddress address;
};

TEST_F(DispatcherFixture, FirstRequestDeploysAndInstallsFlow) {
    start();
    const auto result = request_and_wait(client, address);
    EXPECT_TRUE(result.ok) << result.error;
    EXPECT_EQ(result.server_node, edge);
    const auto& stats = platform.controller().dispatcher().stats();
    EXPECT_EQ(stats.packet_ins, 1u);
    EXPECT_EQ(stats.deployed_waiting, 1u);
    EXPECT_EQ(platform.controller().flow_memory().size(), 1u);
    EXPECT_EQ(platform.ingress().table().size(), 1u);
}

TEST_F(DispatcherFixture, ClientLocationIsTracked) {
    start();
    request_and_wait(client, address);
    // Location = the ingress switch the client's packets entered through.
    const auto location =
        platform.controller().dispatcher().client_location(net::Ipv4{10, 0, 1, 1});
    ASSERT_TRUE(location);
    EXPECT_EQ(*location, platform.ingress_node());
    EXPECT_FALSE(platform.controller().dispatcher().client_location(
        net::Ipv4{10, 0, 1, 99}));
}

TEST_F(DispatcherFixture, FlowMemoryFastPathSkipsScheduling) {
    ControllerConfig config;
    config.dispatcher.switch_idle_timeout = seconds(1); // switch forgets fast
    config.flow_memory.idle_timeout = seconds(300);     // memory keeps it
    config.scale_down_idle = false;
    start(config);

    request_and_wait(client, address);
    // Let the *switch* entry expire while the memorized flow stays valid.
    platform.simulation().run_until(platform.simulation().now() + seconds(5));
    EXPECT_EQ(platform.ingress().table().expire(platform.simulation().now()), 1u);

    const auto result = request_and_wait(client, address);
    EXPECT_TRUE(result.ok);
    const auto& stats = platform.controller().dispatcher().stats();
    EXPECT_EQ(stats.packet_ins, 2u);
    EXPECT_EQ(stats.memory_hits, 1u);       // answered from FlowMemory
    EXPECT_EQ(stats.deployed_waiting, 1u);  // no second deployment
    // The memory-hit answer is quick: no scheduling, no deployment.
    EXPECT_LT(result.time_total, milliseconds(10));
}

TEST_F(DispatcherFixture, StaleMemoryFallsBackToFullDispatch) {
    ControllerConfig config;
    config.flow_memory.idle_timeout = seconds(300);
    config.scale_down_idle = false;
    start(config);
    request_and_wait(client, address);

    // Kill the instance behind FlowMemory's back.
    bool down = false;
    platform.cluster("edge")->scale_down(
        platform.service_registry().lookup(address)->spec.name,
        [&](bool ok) { down = ok; });
    platform.simulation().run_until(platform.simulation().now() + seconds(2));
    ASSERT_TRUE(down);
    // Also clear the stale switch entry (as its idle timeout would).
    platform.ingress().table().clear();

    const auto result = request_and_wait(client, address);
    EXPECT_TRUE(result.ok) << result.error; // redeployed on demand
    const auto& stats = platform.controller().dispatcher().stats();
    EXPECT_EQ(stats.memory_hits, 0u); // stale entry was not trusted
    EXPECT_EQ(stats.deployed_waiting, 2u);
}

TEST_F(DispatcherFixture, UnregisteredAddressInstallsNoFlow) {
    start();
    const net::ServiceAddress unknown{net::Ipv4{198, 51, 100, 50}, 80};
    platform.topology().add_ip_alias(platform.cloud_node(), unknown.ip);
    platform.topology().open_port(platform.cloud_node(), unknown.port);
    platform.endpoints().bind(platform.cloud_node(), unknown.port,
                              [](sim::Bytes, net::EndpointDirectory::ReplyFn reply) {
                                  reply(128);
                              });
    const auto result = request_and_wait(client, unknown);
    EXPECT_TRUE(result.ok);
    EXPECT_EQ(result.server_node, platform.cloud_node());
    EXPECT_EQ(platform.controller().dispatcher().stats().unregistered, 1u);
    EXPECT_EQ(platform.ingress().table().size(), 0u);
    EXPECT_EQ(platform.controller().flow_memory().size(), 0u);
}

TEST_F(DispatcherFixture, CloudOnlySchedulerInstallsCloudFlow) {
    ControllerConfig config;
    config.scheduler = kCloudOnlyScheduler;
    start(config);
    const auto result = request_and_wait(client, address);
    EXPECT_TRUE(result.ok) << result.error;
    EXPECT_EQ(result.server_node, platform.cloud_node());
    const auto& stats = platform.controller().dispatcher().stats();
    EXPECT_EQ(stats.cloud_fallbacks, 1u);
    EXPECT_EQ(stats.deployed_waiting, 0u);
    // A redirect-to-cloud flow keeps follow-ups off the controller.
    EXPECT_EQ(platform.ingress().table().size(), 1u);
    request_and_wait(client, address);
    EXPECT_EQ(platform.controller().dispatcher().stats().packet_ins, 1u);
}

TEST_F(DispatcherFixture, OnBestReadyEvictsFlowsByCookie) {
    start();
    request_and_wait(client, address);
    ASSERT_EQ(platform.ingress().table().size(), 1u);
    const auto* annotated = platform.service_registry().lookup(address);
    platform.controller().dispatcher().on_best_ready(annotated->spec);
    platform.simulation().run_until(platform.simulation().now() + seconds(1));
    EXPECT_EQ(platform.ingress().table().size(), 0u);
    EXPECT_EQ(platform.controller().flow_memory().size(), 0u);
}

TEST_F(DispatcherFixture, ReRegistrationRefreshesTheServiceKeys) {
    // The first packet-in resolves the service's keys (FlowMemory ids, flow
    // cookie) and caches them in its registry entry. A different service
    // registered at the same address must not inherit them.
    ControllerConfig config;
    config.flow_memory.idle_timeout = seconds(300);
    config.scale_down_idle = false;
    start(config);
    request_and_wait(client, address);

    AnnotatedService renamed = *platform.service_registry().lookup(address);
    renamed.spec.name = "renamed-web";
    platform.service_registry().register_service(address, renamed);
    platform.ingress().table().clear();

    // Answered from FlowMemory (the address's instance still serves), and
    // installed under the new name's cookie ...
    ASSERT_TRUE(request_and_wait(client, address).ok);
    EXPECT_EQ(platform.controller().dispatcher().stats().memory_hits, 1u);
    ASSERT_EQ(platform.ingress().table().size(), 1u);
    EXPECT_EQ(platform.controller().flow_memory().flows_for_service("renamed-web"), 1u);

    // ... so the new service's BEST-ready eviction removes it.
    platform.controller().dispatcher().on_best_ready(
        platform.service_registry().lookup(address)->spec);
    platform.simulation().run_until(platform.simulation().now() + seconds(1));
    EXPECT_EQ(platform.ingress().table().size(), 0u);
    EXPECT_EQ(platform.controller().flow_memory().size(), 0u);
}

TEST_F(DispatcherFixture, ConcurrentFirstRequestsShareOneDeployment) {
    start();
    int done = 0;
    for (int i = 0; i < 6; ++i) {
        platform.http_request(client, address, 100, [&](const net::HttpResult& r) {
            EXPECT_TRUE(r.ok) << r.error;
            ++done;
        });
    }
    platform.simulation().run_until(seconds(60));
    EXPECT_EQ(done, 6);
    EXPECT_EQ(platform.deployment_engine().records().size(), 1u);
    const auto& stats = platform.controller().dispatcher().stats();
    EXPECT_EQ(stats.packet_ins, 6u);
}

// ------------------------------------------------- two-cluster regressions

struct TwoClusterFixture : ::testing::Test {
    TwoClusterFixture() {
        client = platform.add_client("client", net::Ipv4{10, 0, 1, 1});
        edge_a = platform.add_edge_host("edge-a", net::Ipv4{10, 0, 0, 2}, 12);
        edge_b = platform.add_edge_host("edge-b", net::Ipv4{10, 0, 0, 3}, 12);
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
    }

    net::ServiceAddress register_web(std::uint8_t last_octet,
                                     const std::string& resources = "") {
        const net::ServiceAddress address{net::Ipv4{203, 0, 113, last_octet}, 80};
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
)" + resources);
        return address;
    }

    net::HttpResult request_and_wait(const net::ServiceAddress& to) {
        net::HttpResult result;
        bool done = false;
        platform.http_request(client, to, 100, [&](const net::HttpResult& r) {
            result = r;
            done = true;
        });
        while (!done) {
            platform.simulation().run_until(platform.simulation().now() +
                                            seconds(1));
        }
        return result;
    }

    core::EdgePlatform platform;
    net::NodeId client, edge_a, edge_b;
};

TEST_F(TwoClusterFixture, DeploymentRejectionRetriesSiblingClusterBeforeCloud) {
    // edge-a (scheduled first) cannot fit the 500m request; its admission
    // rejection must not strand the client on the cloud while edge-b can
    // serve. Regression: the dispatcher used to release to the cloud on the
    // first deployment failure.
    orchestrator::DockerClusterConfig tiny;
    tiny.capacity = {.cpu_millicores = 100, .memory_bytes = 0};
    platform.add_docker_cluster("edge-a", edge_a, tiny);
    platform.add_docker_cluster("edge-b", edge_b);
    const auto address = register_web(40, R"(          resources:
            requests:
              cpu: 500m
)");
    platform.start_controller(edge_a);

    const auto result = request_and_wait(address);
    ASSERT_TRUE(result.ok) << result.error;
    EXPECT_EQ(result.server_node, edge_b); // sibling serves, not the cloud
    const auto& stats = platform.controller().dispatcher().stats();
    EXPECT_EQ(stats.failures, 1u);
    EXPECT_EQ(stats.deploy_retries, 1u);
    EXPECT_EQ(stats.retry_successes, 1u);
    EXPECT_EQ(stats.cloud_fallbacks, 0u);
    // The rejection is recorded with its typed reason.
    const auto& records = platform.deployment_engine().records();
    ASSERT_EQ(records.size(), 2u);
    EXPECT_FALSE(records[0].ok);
    EXPECT_EQ(records[0].cluster, "edge-a");
    EXPECT_EQ(records[0].admission,
              orchestrator::AdmissionReason::kInsufficientCpu);
    EXPECT_TRUE(records[1].ok);
    EXPECT_EQ(records[1].cluster, "edge-b");
}

TEST_F(TwoClusterFixture, SecondRetryFailureReleasesToCloud) {
    // Both edges too small: one retry, then the cloud answers.
    orchestrator::DockerClusterConfig tiny;
    tiny.capacity = {.cpu_millicores = 100, .memory_bytes = 0};
    platform.add_docker_cluster("edge-a", edge_a, tiny);
    platform.add_docker_cluster("edge-b", edge_b, tiny);
    const auto address = register_web(41, R"(          resources:
            requests:
              cpu: 500m
)");
    platform.start_controller(edge_a);

    const auto result = request_and_wait(address);
    ASSERT_TRUE(result.ok) << result.error;
    EXPECT_EQ(result.server_node, platform.cloud_node());
    const auto& stats = platform.controller().dispatcher().stats();
    EXPECT_EQ(stats.deploy_retries, 1u);
    EXPECT_EQ(stats.retry_successes, 0u);
    EXPECT_EQ(stats.failures, 2u);
    EXPECT_EQ(stats.cloud_fallbacks, 1u);
}

TEST_F(TwoClusterFixture, InFlightDeploymentsSpreadLeastLoadedHerd) {
    // Regression: least_loaded only counted running instances, which are 0
    // for every cluster during the seconds-long Pull phase -- so a burst of
    // first requests for different services herded onto one cluster. The
    // in-flight deployment count must break the herd.
    platform.add_docker_cluster("edge-a", edge_a);
    platform.add_docker_cluster("edge-b", edge_b);
    const auto first = register_web(42);
    const auto second = register_web(43);
    ControllerConfig config;
    config.scheduler = kLeastLoadedScheduler;
    platform.start_controller(edge_a, std::move(config));

    int done = 0;
    platform.http_request(client, first, 100,
                          [&](const net::HttpResult& r) {
                              EXPECT_TRUE(r.ok) << r.error;
                              ++done;
                          });
    platform.http_request(client, second, 100,
                          [&](const net::HttpResult& r) {
                              EXPECT_TRUE(r.ok) << r.error;
                              ++done;
                          });
    platform.simulation().run_until(seconds(120));
    ASSERT_EQ(done, 2);
    const auto& records = platform.deployment_engine().records();
    ASSERT_EQ(records.size(), 2u);
    EXPECT_NE(records[0].cluster, records[1].cluster)
        << "both services herded onto " << records[0].cluster;
}

} // namespace
} // namespace tedge::sdn

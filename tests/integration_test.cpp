// End-to-end integration tests: the full transparent-access pipeline on the
// simulated C3 testbed -- packet-in, scheduling, on-demand deployment with
// and without waiting, flow memory, and scale-down of idle services.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "testbed/c3.hpp"
#include "workload/http_client.hpp"

namespace tedge {
namespace {

using testbed::C3Options;
using testbed::build_c3;
using testbed::service_by_key;

TEST(Integration, OnDemandWithWaitingDockerServesFirstRequest) {
    C3Options options;
    options.with_k8s = false;
    options.controller.scheduler = sdn::kProximityScheduler;
    auto testbed = build_c3(options);
    auto& platform = testbed->platform;
    testbed->register_table1_services();

    // Pre-pull so only Create + Scale Up + request remain (cached case).
    const auto& nginx = service_by_key("nginx");
    const auto* annotated = platform.service_registry().lookup(nginx.address);
    ASSERT_NE(annotated, nullptr);
    bool pulled = false;
    testbed->docker->ensure_image(annotated->spec,
                                  [&](bool ok, const container::PullTiming&) {
                                      pulled = ok;
                                  });
    platform.simulation().run_until(sim::seconds(60));
    ASSERT_TRUE(pulled);

    net::HttpResult result;
    bool done = false;
    platform.http_request(testbed->clients[0], nginx.address, 120,
                          [&](const net::HttpResult& r) {
                              result = r;
                              done = true;
                          });
    platform.simulation().run_until(sim::seconds(120));

    ASSERT_TRUE(done);
    EXPECT_TRUE(result.ok) << result.error;
    // Served from the edge host, not the cloud.
    EXPECT_EQ(result.server_node, testbed->egs_docker);
    // The paper: first response (with cached image, Docker) < 1 second.
    EXPECT_LT(result.time_total.seconds(), 1.0);
    EXPECT_GT(result.time_total.seconds(), 0.1);

    // The deployment engine ran Create + ScaleUp but no Pull.
    const auto& records = platform.deployment_engine().records();
    ASSERT_EQ(records.size(), 1u);
    EXPECT_FALSE(records[0].phases.pulled);
    EXPECT_TRUE(records[0].phases.created);
    EXPECT_TRUE(records[0].phases.scaled);
    EXPECT_TRUE(records[0].ok);
}

TEST(Integration, SecondRequestHitsInstalledFlowAndIsFast) {
    C3Options options;
    options.with_k8s = false;
    auto testbed = build_c3(options);
    auto& platform = testbed->platform;
    testbed->register_table1_services();
    const auto& asm_svc = service_by_key("asm");

    sim::SimTime first_time;
    sim::SimTime second_time;
    int completed = 0;
    platform.http_request(testbed->clients[0], asm_svc.address, 120,
                          [&](const net::HttpResult& r) {
                              ASSERT_TRUE(r.ok) << r.error;
                              first_time = r.time_total;
                              ++completed;
                          });
    platform.simulation().run_until(sim::seconds(5));
    ASSERT_EQ(completed, 1);

    // Second request one second later -- well within the switch flow's idle
    // timeout, so it must not reach the controller at all.
    platform.simulation().schedule(sim::seconds(1), [&] {
        platform.http_request(testbed->clients[0], asm_svc.address, 120,
                              [&](const net::HttpResult& r) {
                                  ASSERT_TRUE(r.ok) << r.error;
                                  second_time = r.time_total;
                                  ++completed;
                              });
    });
    platform.simulation().run_until(platform.simulation().now() + sim::seconds(30));
    ASSERT_EQ(completed, 2);

    // Second request: flow already installed in the switch, no controller
    // involvement, no deployment -- a few ms at most.
    EXPECT_LT(second_time.ms(), 10.0);
    EXPECT_LT(second_time.ns(), first_time.ns() / 10);
    // Only one packet-in reached the controller (the first request).
    EXPECT_EQ(platform.controller().dispatcher().stats().packet_ins, 1u);
}

TEST(Integration, WithoutWaitingRedirectsToFarEdgeWhileDeployingNear) {
    C3Options options;
    options.with_k8s = false;
    options.with_far_edge = true;
    options.controller.scheduler = sdn::kProximityScheduler;
    options.controller.scheduler_params["wait"] = yamlite::Node{false};
    auto testbed = build_c3(options);
    auto& platform = testbed->platform;
    testbed->register_table1_services();
    const auto& nginx = service_by_key("nginx");
    const auto* annotated = platform.service_registry().lookup(nginx.address);

    // Far edge already runs the service (warm); near edge is empty.
    bool warm = false;
    platform.deployment_engine().ensure(
        *testbed->far_edge, annotated->spec, {},
        [&](bool ok, const orchestrator::InstanceInfo&) { warm = ok; });
    platform.simulation().run_until(sim::seconds(120));
    ASSERT_TRUE(warm);
    platform.deployment_engine().clear_records();

    net::HttpResult first;
    bool done = false;
    platform.http_request(testbed->clients[0], nginx.address, 120,
                          [&](const net::HttpResult& r) {
                              first = r;
                              done = true;
                          });
    platform.simulation().run_until(platform.simulation().now() + sim::seconds(2));

    // The first request is answered by the far edge immediately...
    ASSERT_TRUE(done);
    ASSERT_TRUE(first.ok) << first.error;
    EXPECT_EQ(first.server_node, testbed->far_edge_host);
    EXPECT_LT(first.time_total.ms(), 100.0);

    // ...while the optimal (near) edge deploys in the background.
    platform.simulation().run_until(platform.simulation().now() + sim::seconds(120));
    EXPECT_FALSE(testbed->docker->ready_instances(annotated->spec.name).empty());

    // A later request (new flow dispatch) lands on the near edge.
    net::HttpResult later;
    done = false;
    platform.http_request(testbed->clients[1], nginx.address, 120,
                          [&](const net::HttpResult& r) {
                              later = r;
                              done = true;
                          });
    platform.simulation().run_until(platform.simulation().now() + sim::seconds(30));
    ASSERT_TRUE(done);
    ASSERT_TRUE(later.ok) << later.error;
    EXPECT_EQ(later.server_node, testbed->egs_docker);
}

TEST(Integration, UnregisteredServiceGoesToCloudUntouched) {
    C3Options options;
    options.with_k8s = false;
    auto testbed = build_c3(options);
    auto& platform = testbed->platform;
    testbed->register_table1_services();

    // An address nobody registered, but the cloud answers it (alias).
    const net::ServiceAddress unknown{net::Ipv4{198, 51, 100, 99}, 80};
    platform.topology().add_ip_alias(platform.cloud_node(), unknown.ip);
    platform.topology().open_port(platform.cloud_node(), unknown.port);
    platform.endpoints().bind(platform.cloud_node(), unknown.port,
                              [&](sim::Bytes, net::EndpointDirectory::ReplyFn reply) {
                                  reply(256);
                              });

    net::HttpResult result;
    bool done = false;
    platform.http_request(testbed->clients[0], unknown, 120,
                          [&](const net::HttpResult& r) {
                              result = r;
                              done = true;
                          });
    platform.simulation().run_until(sim::seconds(30));
    ASSERT_TRUE(done);
    ASSERT_TRUE(result.ok) << result.error;
    EXPECT_EQ(result.server_node, platform.cloud_node());
    EXPECT_EQ(platform.controller().dispatcher().stats().unregistered, 1u);
    // No deployment was triggered.
    EXPECT_TRUE(platform.deployment_engine().records().empty());
}

TEST(Integration, IdleServiceIsScaledDownAfterFlowMemoryExpiry) {
    C3Options options;
    options.with_k8s = false;
    options.controller.flow_memory.idle_timeout = sim::seconds(20);
    options.controller.flow_memory.scan_period = sim::seconds(2);
    options.controller.dispatcher.switch_idle_timeout = sim::seconds(5);
    auto testbed = build_c3(options);
    auto& platform = testbed->platform;
    testbed->register_table1_services();
    const auto& asm_svc = service_by_key("asm");
    const auto* annotated = platform.service_registry().lookup(asm_svc.address);

    bool done = false;
    platform.http_request(testbed->clients[0], asm_svc.address, 120,
                          [&](const net::HttpResult& r) {
                              ASSERT_TRUE(r.ok) << r.error;
                              done = true;
                          });
    platform.simulation().run_until(sim::seconds(5));
    ASSERT_TRUE(done);
    ASSERT_FALSE(testbed->docker->ready_instances(annotated->spec.name).empty());

    // No further traffic: the memorized flow expires and the controller
    // scales the idle service down.
    platform.simulation().run_until(sim::seconds(200));
    EXPECT_EQ(platform.controller().idle_scale_downs(), 1u);
    EXPECT_TRUE(testbed->docker->ready_instances(annotated->spec.name).empty());
}

TEST(Integration, K8sDeploymentServesRequestButSlowerThanDocker) {
    C3Options k8s_only;
    k8s_only.with_docker = false;
    auto k8s_testbed = build_c3(k8s_only);
    k8s_testbed->register_table1_services();

    const auto& nginx = service_by_key("nginx");

    // Docker-only total for the same cached scenario, for comparison.
    C3Options docker_only;
    docker_only.with_k8s = false;
    auto docker_testbed = build_c3(docker_only);
    docker_testbed->register_table1_services();

    auto run_first_request = [&](testbed::C3Testbed& tb) {
        auto& p = tb.platform;
        const auto* annotated = p.service_registry().lookup(nginx.address);
        bool pulled = false;
        p.clusters().front()->ensure_image(annotated->spec,
                                           [&](bool ok, const container::PullTiming&) {
                                               pulled = ok;
                                           });
        p.simulation().run_until(p.simulation().now() + sim::seconds(120));
        EXPECT_TRUE(pulled);
        net::HttpResult result;
        bool done = false;
        p.http_request(tb.clients[0], nginx.address, 120,
                       [&](const net::HttpResult& r) {
                           result = r;
                           done = true;
                       });
        p.simulation().run_until(p.simulation().now() + sim::seconds(120));
        EXPECT_TRUE(done);
        EXPECT_TRUE(result.ok) << result.error;
        return result.time_total;
    };

    const sim::SimTime docker_total = run_first_request(*docker_testbed);
    const sim::SimTime k8s_total = run_first_request(*k8s_testbed);

    // Paper fig. 12: Docker < 1 s, Kubernetes ~ 3 s.
    EXPECT_LT(docker_total.seconds(), 1.0);
    EXPECT_GT(k8s_total.seconds(), 1.5);
    EXPECT_LT(k8s_total.seconds(), 6.0);
    EXPECT_GT(k8s_total.ns(), docker_total.ns() * 2);
}

/// Outcome counts of a batch of scheduled requests.
struct Outcomes {
    int ok = 0;
    std::vector<std::string> errors;
};

/// Send one request from `client` to `address` at simulated time `at`.
void request_at(testbed::C3Testbed& tb, net::NodeId client,
                const net::ServiceAddress& address, sim::SimTime at,
                Outcomes& out) {
    auto& platform = tb.platform;
    platform.simulation().schedule_at(at, [&platform, client, address, &out] {
        platform.http_request(client, address, 120,
                              [&out](const net::HttpResult& r) {
                                  if (r.ok) {
                                      ++out.ok;
                                  } else {
                                      out.errors.emplace_back(r.error);
                                  }
                              });
    });
}

// A client that keeps its 10 s switch entry warm never reaches the
// controller, so FlowMemory idles its flow out after 60 s and the controller
// scales the pod down under it. The switch must stop steering to the closed
// port: every request of a client streaming every 5 s for 180 s to an
// on-demand k8s service, with controller defaults, succeeds.
TEST(Integration, StreamingClientIsNeverSteeredToAClosedPod) {
    C3Options options;
    options.with_docker = false;
    auto testbed = build_c3(options);
    testbed->register_table1_services();
    const auto& nginx = service_by_key("nginx");

    Outcomes out;
    for (int i = 0; i <= 36; ++i) {
        request_at(*testbed, testbed->clients[0], nginx.address,
                   sim::seconds(5 * i), out);
    }
    testbed->platform.simulation().run_until(sim::seconds(240));

    EXPECT_EQ(out.ok, 37);
    EXPECT_TRUE(out.errors.empty())
        << out.errors.size() << " failed, first: " << out.errors.front();
    EXPECT_GT(testbed->platform.controller().idle_scale_downs(), 0u);
}

// The controller can steer a new client to a pod it has just decided to
// scale down (the pod is still listed ready). Client A's cold start is
// memorized at ~7 s, so its flow idles out and triggers the scale-down
// decision at the 70 s scan; client B's first request lands just after it
// and is redirected to the terminating pod. When the pod's port closes, B's
// switch entry must go with it, so B's second request re-dispatches instead
// of being refused.
TEST(Integration, ClientSteeredToTerminatingPodIsReDispatched) {
    C3Options options;
    options.with_docker = false;
    auto testbed = build_c3(options);
    testbed->register_table1_services();
    const auto& nginx = service_by_key("nginx");

    Outcomes a;
    Outcomes b;
    request_at(*testbed, testbed->clients[0], nginx.address, sim::seconds(0), a);
    request_at(*testbed, testbed->clients[1], nginx.address,
               sim::milliseconds(70'050), b);
    request_at(*testbed, testbed->clients[1], nginx.address,
               sim::milliseconds(72'050), b);
    testbed->platform.simulation().run_until(sim::seconds(120));

    EXPECT_EQ(a.ok, 1);
    EXPECT_EQ(b.ok, 2);
    EXPECT_TRUE(b.errors.empty()) << b.errors.front();
    EXPECT_EQ(testbed->platform.controller().idle_scale_downs(), 1u);
}

} // namespace
} // namespace tedge

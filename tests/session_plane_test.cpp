// Session-plane tests (DESIGN §11): first-class UE sessions, continuity
// policies, client-scoped FlowMemory state, fallback ingress resolution,
// mid-request handovers, and the cross-shard FlowMemory handoff --
// byte-identical at every shard/worker count under both coordinator sync
// modes.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "core/edge_platform.hpp"
#include "sdn/continuity.hpp"
#include "sdn/control_plane_shard.hpp"
#include "sdn/session_plane.hpp"
#include "simcore/sharded_simulation.hpp"
#include "workload/mobility.hpp"

namespace tedge::sdn {
namespace {

using sim::milliseconds;
using sim::seconds;

// ---------------------------------------------------- continuity policies

ContinuityContext context_with(sim::SimTime resteer, sim::SimTime migrate,
                               bool warm, sim::SimTime deploy_cost) {
    ContinuityContext ctx;
    ctx.resteer_latency = resteer;
    ctx.migrate_latency = migrate;
    ctx.target_warm = warm;
    ctx.deployment_cost = deploy_cost;
    return ctx;
}

TEST(ContinuityPolicyTest, ResteerPolicyAlwaysResteers) {
    ResteerPolicy policy;
    EXPECT_EQ(policy.decide(context_with(seconds(1), sim::SimTime::zero(), true,
                                         sim::SimTime::zero())),
              ContinuityAction::kResteer);
}

TEST(ContinuityPolicyTest, LatencyDeltaMigratesOnlyAboveThreshold) {
    ContinuityConfig config;
    config.min_latency_gain = milliseconds(1);
    LatencyDeltaPolicy policy(config);
    // Saves 4 ms per trip to a warm target: migrate.
    EXPECT_EQ(policy.decide(context_with(milliseconds(5), milliseconds(1), true,
                                         sim::SimTime::zero())),
              ContinuityAction::kMigrate);
    // Saves only 0.5 ms: not worth a cut-over.
    EXPECT_EQ(policy.decide(context_with(milliseconds(1) + sim::microseconds(500),
                                         milliseconds(1), true,
                                         sim::SimTime::zero())),
              ContinuityAction::kResteer);
}

TEST(ContinuityPolicyTest, LatencyDeltaRespectsDeployCostCap) {
    ContinuityConfig config;
    config.min_latency_gain = milliseconds(1);
    config.max_deploy_cost = seconds(5);
    LatencyDeltaPolicy policy(config);
    // Huge gain, but a cold target above the cap: re-steer.
    EXPECT_EQ(policy.decide(context_with(milliseconds(50), milliseconds(1),
                                         false, seconds(10))),
              ContinuityAction::kResteer);
    // Same gain, warm-up within budget: migrate.
    EXPECT_EQ(policy.decide(context_with(milliseconds(50), milliseconds(1),
                                         false, milliseconds(200))),
              ContinuityAction::kMigrate);
}

TEST(ContinuityPolicyTest, FactoryResolvesNamesAndRejectsUnknown) {
    EXPECT_STREQ(make_continuity_policy({.policy = kResteerPolicy})->name(),
                 kResteerPolicy);
    EXPECT_STREQ(make_continuity_policy({.policy = kLatencyDeltaPolicy})->name(),
                 kLatencyDeltaPolicy);
    ContinuityConfig bad;
    bad.policy = "teleport";
    EXPECT_THROW(make_continuity_policy(bad), std::invalid_argument);
}

// ------------------------------------------------------------ session plane

struct SessionPlaneFixture : ::testing::Test {
    SessionPlaneFixture() {
        gnb2 = &platform.add_ingress("gnb2", milliseconds(2));
        client = platform.add_client("ue", ip);
        platform.topology().add_link(client, gnb2->node(), sim::microseconds(300),
                                     sim::gbit_per_sec(1));
    }

    core::EdgePlatform platform;
    net::Ipv4 ip{10, 0, 1, 1};
    net::NodeId client;
    net::OvsSwitch* gnb2 = nullptr;
};

TEST_F(SessionPlaneFixture, AddClientCreatesExplicitSession) {
    auto& sessions = platform.sessions();
    const UeSession* s = sessions.by_ip(ip);
    ASSERT_NE(s, nullptr);
    EXPECT_TRUE(s->explicit_attachment);
    EXPECT_EQ(s->epoch, 1u);
    EXPECT_EQ(s->ingress, platform.ingress().node());
    EXPECT_EQ(sessions.by_node(client), s);
    EXPECT_EQ(sessions.stats().attaches, 1u);
    EXPECT_EQ(sessions.current_ingress(client), &platform.ingress());
}

TEST_F(SessionPlaneFixture, SameCellReattachIsNotAHandover) {
    bool fired = false;
    platform.sessions().on_handover(
        [&](const UeSession&, net::NodeId) { fired = true; });
    platform.handover_client(client, platform.ingress());
    const UeSession* s = platform.sessions().by_ip(ip);
    EXPECT_EQ(s->epoch, 1u);
    EXPECT_EQ(s->handovers, 0u);
    EXPECT_FALSE(fired);
    EXPECT_EQ(platform.sessions().stats().handovers, 0u);
}

TEST_F(SessionPlaneFixture, HandoverBumpsEpochAndFiresCallback) {
    std::optional<net::NodeId> seen_old;
    std::uint64_t seen_epoch = 0;
    platform.sessions().on_handover([&](const UeSession& s, net::NodeId old) {
        seen_old = old;
        seen_epoch = s.epoch;
        EXPECT_EQ(s.ingress, gnb2->node()); // already re-homed when fired
    });
    platform.handover_client(client, *gnb2);
    ASSERT_TRUE(seen_old);
    EXPECT_EQ(*seen_old, platform.ingress().node());
    EXPECT_EQ(seen_epoch, 2u);
    EXPECT_EQ(platform.sessions().stats().handovers, 1u);
    EXPECT_EQ(platform.sessions().current_ingress(client), gnb2);
    EXPECT_EQ(*platform.sessions().location(ip), gnb2->node());
}

TEST_F(SessionPlaneFixture, ImplicitSessionsFollowPackets) {
    auto& sessions = platform.sessions();
    const net::Ipv4 stranger{10, 0, 9, 9};
    sessions.observe_packet(stranger, platform.ingress().node());
    const UeSession* s = sessions.by_ip(stranger);
    ASSERT_NE(s, nullptr);
    EXPECT_FALSE(s->explicit_attachment);
    EXPECT_EQ(sessions.stats().implicit_sessions, 1u);
    // Last packet wins for implicit sessions (the legacy behaviour).
    sessions.observe_packet(stranger, gnb2->node());
    EXPECT_EQ(*sessions.location(stranger), gnb2->node());
    EXPECT_EQ(sessions.by_ip(stranger)->epoch, 2u);
}

TEST_F(SessionPlaneFixture, ExplicitAttachmentOutweighsStragglerPackets) {
    platform.handover_client(client, *gnb2);
    // An in-flight packet drains out of the old cell: counted, not believed.
    platform.sessions().observe_packet(ip, platform.ingress().node());
    EXPECT_EQ(*platform.sessions().location(ip), gnb2->node());
    EXPECT_EQ(platform.sessions().stats().out_of_cell_packets, 1u);
}

TEST_F(SessionPlaneFixture, DetachRemovesSession) {
    auto& sessions = platform.sessions();
    EXPECT_TRUE(sessions.detach(ip));
    EXPECT_EQ(sessions.by_ip(ip), nullptr);
    EXPECT_EQ(sessions.by_node(client), nullptr);
    EXPECT_EQ(sessions.current_ingress(client), nullptr);
    EXPECT_FALSE(sessions.detach(ip));
    EXPECT_EQ(sessions.stats().detaches, 1u);
}

// A node that moved to a second address keeps that binding when the first
// address is detached (by_node and current_ingress both went null).
TEST_F(SessionPlaneFixture, DetachOfOldAddressKeepsNodeBoundToItsNewSession) {
    auto& sessions = platform.sessions();
    const net::Ipv4 second{10, 0, 1, 2};
    const UeSession& moved = sessions.attach(client, second, *gnb2);
    EXPECT_EQ(sessions.by_node(client), &moved);
    EXPECT_TRUE(sessions.detach(ip));
    EXPECT_EQ(sessions.by_node(client), &moved);
    EXPECT_EQ(sessions.current_ingress(client), gnb2);
    EXPECT_TRUE(sessions.detach(second));
    EXPECT_EQ(sessions.by_node(client), nullptr);
    EXPECT_EQ(sessions.current_ingress(client), nullptr);
}

// The node index follows every way a session gains or loses its node.
TEST_F(SessionPlaneFixture, NodeIndexFollowsAttachReattachDetachAndClaim) {
    auto& sessions = platform.sessions();
    const UeSession* s = sessions.by_ip(ip);
    // Re-attach to another cell: same session, new ingress.
    sessions.attach(client, ip, *gnb2);
    EXPECT_EQ(sessions.by_node(client), s);
    EXPECT_EQ(sessions.current_ingress(client), gnb2);
    sessions.attach(client, ip, platform.ingress());
    EXPECT_EQ(sessions.current_ingress(client), &platform.ingress());

    // Detach, then an implicit session for the same address: no node yet.
    EXPECT_TRUE(sessions.detach(ip));
    EXPECT_EQ(sessions.by_node(client), nullptr);
    sessions.observe_packet(ip, gnb2->node());
    const UeSession* implicit = sessions.by_ip(ip);
    ASSERT_NE(implicit, nullptr);
    EXPECT_FALSE(implicit->explicit_attachment);
    EXPECT_EQ(sessions.by_node(client), nullptr);
    EXPECT_EQ(sessions.current_ingress(client), nullptr);

    // Claiming the implicit session binds the node to it.
    sessions.attach(client, ip, *gnb2);
    EXPECT_EQ(sessions.by_node(client), implicit);
    EXPECT_TRUE(implicit->explicit_attachment);
    EXPECT_EQ(sessions.current_ingress(client), gnb2);

    // A newly added client is bound; an id past every attached one and the
    // invalid id have no session.
    const net::NodeId stranger = platform.add_client("ue2", net::Ipv4{10, 0, 1, 3});
    EXPECT_NE(sessions.by_node(stranger), nullptr); // add_client attaches
    EXPECT_EQ(sessions.by_node(net::NodeId{stranger.value + 1}), nullptr);
    EXPECT_EQ(sessions.by_node(net::NodeId{}), nullptr);
}

// -------------------------------------------- client-scoped flow memory

MemorizedFlow client_flow(std::uint32_t client_octet, std::uint8_t service_octet,
                          const std::string& cluster = "edge") {
    MemorizedFlow flow;
    flow.client_ip = net::Ipv4{10, 0, 1, static_cast<std::uint8_t>(client_octet)};
    flow.service_address = {net::Ipv4{203, 0, 113, service_octet}, 80};
    flow.service_name = "svc" + std::to_string(service_octet);
    flow.instance_node = net::NodeId{1};
    flow.instance_port = 8080;
    flow.cluster = cluster;
    return flow;
}

struct ClientMemoryFixture : ::testing::Test {
    ClientMemoryFixture()
        : memory(simulation, {.idle_timeout = seconds(60),
                              .scan_period = seconds(5),
                              .track_clients = true}) {}

    sim::Simulation simulation;
    FlowMemory memory;
};

TEST_F(ClientMemoryFixture, ExtractClientRemovesAllFlowsWithoutIdleNoise) {
    std::size_t idle_calls = 0;
    memory.set_idle_service_callback(
        [&](const std::string&, const std::string&) { ++idle_calls; });
    memory.memorize(client_flow(1, 1));
    memory.memorize(client_flow(1, 2));
    memory.memorize(client_flow(2, 1));

    const auto moved = memory.extract_client(net::Ipv4{10, 0, 1, 1});
    EXPECT_EQ(moved.size(), 2u);
    EXPECT_EQ(memory.size(), 1u);
    EXPECT_TRUE(memory.flows_of_client(net::Ipv4{10, 0, 1, 1}).empty());
    // The flows moved, they did not go idle: no scale-down signals.
    EXPECT_EQ(idle_calls, 0u);
    // The untouched client keeps its flow.
    EXPECT_EQ(memory.flows_of_client(net::Ipv4{10, 0, 1, 2}).size(), 1u);
}

TEST_F(ClientMemoryFixture, AdoptionPreservesCreatedAndRestartsIdleClock) {
    simulation.run_until(seconds(1));
    memory.memorize(client_flow(1, 1));
    simulation.run_until(seconds(10));
    auto moved = memory.extract_client(net::Ipv4{10, 0, 1, 1});
    ASSERT_EQ(moved.size(), 1u);
    EXPECT_EQ(moved[0].created, seconds(1));

    simulation.run_until(seconds(20));
    memory.memorize(moved[0]); // the adopting shard re-memorizes
    const auto* adopted =
        memory.peek(net::Ipv4{10, 0, 1, 1}, {net::Ipv4{203, 0, 113, 1}, 80});
    ASSERT_NE(adopted, nullptr);
    EXPECT_EQ(adopted->created, seconds(1));    // age survives the move
    EXPECT_EQ(adopted->last_used, seconds(20)); // idle clock restarts
}

TEST_F(ClientMemoryFixture, ExtractedFlowsLeaveNoStaleExpiry) {
    std::size_t idle_calls = 0;
    memory.set_idle_service_callback(
        [&](const std::string&, const std::string&) { ++idle_calls; });
    memory.memorize(client_flow(1, 1));
    simulation.run_until(seconds(5));
    (void)memory.extract_client(net::Ipv4{10, 0, 1, 1});
    // The filed expiry bucket fires long after the flow left: nothing to
    // expire, nothing to notify.
    simulation.run_until(seconds(180));
    EXPECT_EQ(memory.size(), 0u);
    EXPECT_EQ(idle_calls, 0u);
}

TEST_F(ClientMemoryFixture, ForgetFlowNotifiesOnlyWhenPairGoesIdle) {
    std::vector<std::pair<std::string, std::string>> idle;
    memory.set_idle_service_callback(
        [&](const std::string& service, const std::string& cluster) {
            idle.emplace_back(service, cluster);
        });
    memory.memorize(client_flow(1, 1));
    memory.memorize(client_flow(2, 1));

    EXPECT_TRUE(memory.forget_flow(net::Ipv4{10, 0, 1, 1},
                                   {net::Ipv4{203, 0, 113, 1}, 80},
                                   /*notify_if_idle=*/true));
    EXPECT_TRUE(idle.empty()); // client 2 still holds the pair live
    EXPECT_TRUE(memory.forget_flow(net::Ipv4{10, 0, 1, 2},
                                   {net::Ipv4{203, 0, 113, 1}, 80},
                                   /*notify_if_idle=*/true));
    ASSERT_EQ(idle.size(), 1u);
    EXPECT_EQ(idle[0], (std::pair<std::string, std::string>{"svc1", "edge"}));
    EXPECT_FALSE(memory.forget_flow(net::Ipv4{10, 0, 1, 9},
                                    {net::Ipv4{203, 0, 113, 1}, 80}, true));
}

TEST(ClientMemoryParityTest, FlowsOfClientMatchesWithAndWithoutIndex) {
    sim::Simulation sim_a, sim_b;
    FlowMemory indexed(sim_a, {.idle_timeout = seconds(60),
                               .scan_period = seconds(5),
                               .track_clients = true});
    FlowMemory scanning(sim_b, {.idle_timeout = seconds(60),
                                .scan_period = seconds(5),
                                .track_clients = false});
    for (auto* m : {&indexed, &scanning}) {
        m->memorize(client_flow(1, 1));
        m->memorize(client_flow(1, 2));
        m->memorize(client_flow(1, 3));
        m->memorize(client_flow(2, 1));
        m->forget_flow(net::Ipv4{10, 0, 1, 1}, {net::Ipv4{203, 0, 113, 2}, 80},
                       false);
    }
    auto names = [](const FlowMemory& m) {
        std::vector<std::string> out;
        for (const auto& f : m.flows_of_client(net::Ipv4{10, 0, 1, 1})) {
            out.push_back(f.service_name);
        }
        std::sort(out.begin(), out.end());
        return out;
    };
    EXPECT_EQ(names(indexed), names(scanning));
    EXPECT_EQ(names(indexed), (std::vector<std::string>{"svc1", "svc3"}));
}

// ------------------------------------------- platform mobility scenarios

/// A two-cell platform with one on-demand service; parametrized over the
/// controller config.
struct TwoCellPlatform {
    explicit TwoCellPlatform(sdn::ControllerConfig config = {},
                             sim::SimTime backbone = sim::microseconds(200),
                             sim::SimTime radio_link = sim::microseconds(300),
                             bool defer_controller = false,
                             bool link_second_cell = true)
        : platform(std::make_unique<core::EdgePlatform>()) {
        auto& p = *platform;
        client = p.add_client("ue", client_ip, radio_link);
        edge = p.add_edge_host("edge", net::Ipv4{10, 0, 0, 2}, 12);
        p.add_cloud();
        gnb2 = &p.add_ingress("gnb2", backbone);
        // Overlapping coverage: pre-wire the second radio leg so handovers
        // can be scheduled without touching the topology. Cells that only
        // come into range later (the migration scenarios) skip this and use
        // connect_client_to_ingress at handover time instead.
        if (link_second_cell) {
            p.topology().add_link(client, gnb2->node(), radio_link,
                                  sim::gbit_per_sec(1));
        }

        auto& hub = p.add_registry({.host = "docker.io"});
        container::Image image;
        image.ref = *container::ImageRef::parse("web:1");
        image.layers = container::make_layers("web", sim::mib(8), 2);
        hub.put(image);

        container::AppProfile app;
        app.name = "web";
        app.init_median = milliseconds(15);
        app.service_median = sim::microseconds(150);
        app.port = 80;
        p.add_app_profile("web:1", app);

        p.add_docker_cluster("edge", edge);
        address = {net::Ipv4{203, 0, 113, 90}, 80};
        p.register_service(address, R"(
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
        config.scale_down_idle = false;
        config.flow_memory.idle_timeout = seconds(300);
        controller_config = std::move(config);
        // The controller snapshots the cluster list: fixtures adding more
        // clusters defer the start until they are all in place.
        if (!defer_controller) start_controller();
    }

    void start_controller() {
        platform->start_controller(edge, controller_config);
    }

    net::HttpResult request_and_wait(net::NodeId from) {
        net::HttpResult result;
        bool done = false;
        platform->http_request(from, address, 100,
                               [&](const net::HttpResult& r) {
                                   result = r;
                                   done = true;
                               });
        while (!done) {
            platform->simulation().run_until(platform->simulation().now() +
                                             seconds(1));
        }
        return result;
    }
    net::HttpResult request_and_wait() { return request_and_wait(client); }

    std::unique_ptr<core::EdgePlatform> platform;
    sdn::ControllerConfig controller_config;
    net::Ipv4 client_ip{10, 0, 1, 1};
    net::NodeId client, edge;
    net::OvsSwitch* gnb2 = nullptr;
    net::ServiceAddress address;
};

// The satellite-2 regression: before the session plane, the dispatcher's
// location table was packet-driven and went stale between the radio
// handover and the client's next packet. Now the handover event itself is
// the source of truth -- no packet needed.
TEST(SessionPlaneScenarioTest, LocationIsFreshBeforeAnyPostHandoverPacket) {
    TwoCellPlatform t;
    const auto first = t.request_and_wait();
    ASSERT_TRUE(first.ok) << first.error;
    ASSERT_EQ(*t.platform->controller().dispatcher().client_location(t.client_ip),
              t.platform->ingress().node());

    t.platform->handover_client(t.client, *t.gnb2);
    // No packet has flowed since the handover; the location must already
    // point at the new cell.
    EXPECT_EQ(*t.platform->controller().dispatcher().client_location(t.client_ip),
              t.gnb2->node());
    EXPECT_EQ(t.platform->controller().dispatcher().stats().handovers, 1u);
}

// Satellite 1: unattached requesters fall back to the primary ingress and
// the fallback is counted; attached clients never touch the counter.
TEST(SessionPlaneScenarioTest, UnattachedFallbackIsCounted) {
    TwoCellPlatform t;
    const auto attached = t.request_and_wait();
    ASSERT_TRUE(attached.ok) << attached.error;
    EXPECT_EQ(t.platform->network().unattached_fallbacks(), 0u);

    // The edge host never attached anywhere: counted fallback, request ok.
    const auto stray = t.request_and_wait(t.edge);
    EXPECT_TRUE(stray.ok) << stray.error;
    EXPECT_EQ(t.platform->network().unattached_fallbacks(), 1u);
}

// ---------------------------------------------- mid-request handovers

struct MidRequestOutcome {
    bool first_ok = false;
    bool second_ok = false;
    bool third_ok = false;
    std::uint64_t handovers = 0;
    std::size_t deployments = 0;
};

/// Request 1 deploys on demand; the client re-homes to gNB2 at t=5 ms --
/// squarely inside the with-waiting deployment. Request 2 then enters at
/// gNB2 and re-homes *back* mid-exchange (between its SYN and the
/// response). Request 3 enters at the primary again.
MidRequestOutcome run_mid_request_scenario() {
    TwoCellPlatform t;
    auto& sim = t.platform->simulation();
    MidRequestOutcome out;

    t.platform->schedule_handover(t.client, *t.gnb2, milliseconds(5));
    out.first_ok = t.request_and_wait().ok;
    sim.run_until(sim.now() + seconds(1));

    t.platform->schedule_handover(t.client, t.platform->ingress(),
                                  sim.now() + sim::microseconds(300));
    out.second_ok = t.request_and_wait().ok;
    sim.run_until(sim.now() + seconds(1));

    out.third_ok = t.request_and_wait().ok;
    out.handovers = t.platform->controller().dispatcher().stats().handovers;
    out.deployments = t.platform->deployment_engine().records().size();
    return out;
}

TEST(MidRequestHandoverTest, RequestsSurviveReHomesAtEveryPhase) {
    const auto out = run_mid_request_scenario();
    EXPECT_TRUE(out.first_ok);
    EXPECT_TRUE(out.second_ok);
    EXPECT_TRUE(out.third_ok);
    EXPECT_EQ(out.handovers, 2u);
    // One on-demand deployment serves all three requests across both cells.
    EXPECT_EQ(out.deployments, 1u);
}

// --------------------------------------------------- migrate-and-warm

/// Two clusters, one per cell, 4 ms of backbone between the cells: under
/// the latency_delta policy a handover to gNB2 warms the near cluster and
/// cuts over; under resteer the old instance keeps serving.
struct MigrationPlatform : TwoCellPlatform {
    static sdn::ControllerConfig migration_config() {
        sdn::ControllerConfig config;
        config.dispatcher.continuity.policy = kLatencyDeltaPolicy;
        // Cold warm-ups are acceptable in this scenario.
        config.dispatcher.continuity.max_deploy_cost = seconds(60);
        return config;
    }

    // 4 ms of backbone between the cells, 5 ms radio links: neither the
    // client node nor the edge hosts can short-cut the backhaul, so the
    // post-handover latency picture is genuinely asymmetric. gNB2 is out of
    // range until the UE actually moves -- connect_client_to_ingress wires
    // the radio leg at handover time.
    MigrationPlatform()
        : TwoCellPlatform(migration_config(), milliseconds(4),
                          milliseconds(5), /*defer_controller=*/true,
                          /*link_second_cell=*/false) {
        // A second cluster right next to gNB2 (and as far from the primary
        // cell as the backbone), added before the controller snapshots the
        // cluster list.
        auto& p = *platform;
        edge2 = p.add_edge_host("edge2", net::Ipv4{10, 0, 0, 3}, 12,
                                milliseconds(4));
        p.topology().add_link(edge2, gnb2->node(), sim::microseconds(100),
                              sim::gbit_per_sec(10));
        p.add_docker_cluster("edge2", edge2);
        start_controller();
    }

    net::NodeId edge2;
};

TEST(MigrationTest, HandoverWarmsNearClusterAndCutsOver) {
    MigrationPlatform t;
    const auto first = t.request_and_wait();
    ASSERT_TRUE(first.ok) << first.error;
    EXPECT_EQ(first.server_node, t.edge); // deployed near the primary cell

    t.platform->connect_client_to_ingress(t.client, *t.gnb2, milliseconds(5));
    const auto& stats = t.platform->controller().dispatcher().stats();
    EXPECT_EQ(stats.migrations, 1u); // 4 ms of backbone clears the threshold
    EXPECT_EQ(stats.migrations_completed, 0u); // still warming

    // Let the warm-up finish and cut over, then request again from gNB2.
    t.platform->simulation().run_until(t.platform->simulation().now() +
                                       seconds(30));
    EXPECT_EQ(stats.migrations_completed, 1u);
    const auto after = t.request_and_wait();
    ASSERT_TRUE(after.ok) << after.error;
    EXPECT_EQ(after.server_node, t.edge2); // served by the warmed instance
}

TEST(MigrationTest, StaleMigrationIsDroppedAfterSecondReHome) {
    MigrationPlatform t;
    ASSERT_TRUE(t.request_and_wait().ok);

    t.platform->connect_client_to_ingress(t.client, *t.gnb2, milliseconds(5));
    // Bounce straight back while the edge2 instance is still warming: the
    // completion belongs to a dead epoch and must not cut anything over.
    t.platform->schedule_handover(t.client, t.platform->ingress(),
                                  t.platform->simulation().now() +
                                      milliseconds(1));
    t.platform->simulation().run_until(t.platform->simulation().now() +
                                       seconds(30));
    const auto& stats = t.platform->controller().dispatcher().stats();
    EXPECT_EQ(stats.migrations, 1u);
    EXPECT_EQ(stats.stale_migrations, 1u);
    EXPECT_EQ(stats.migrations_completed, 0u);
    // The flow still points at the original instance.
    const auto result = t.request_and_wait();
    ASSERT_TRUE(result.ok) << result.error;
    EXPECT_EQ(result.server_node, t.edge);
}

// ------------------------------------------- cross-shard client handoff

/// Everything observable about one sharded mobility run.
struct HandoffDigest {
    std::uint64_t events = 0;
    std::uint64_t messages = 0;
    std::int64_t now_ns = 0;
    std::string state; ///< per-shard counters + aggregator totals

    bool operator==(const HandoffDigest&) const = default;
};

/// A commuter corridor over `kCells` edge sites (one sim::Domain each): every
/// UE's flow is installed at cell 0, then handed shard-to-shard along the
/// closed-form corridor crossings. Conservation (handed off == adopted, all
/// flows end at the last cell) and byte-identity across shard/worker counts
/// and sync modes are the assertions.
HandoffDigest run_handoff_scenario(std::size_t shards, std::size_t workers,
                                   sim::SyncMode sync) {
    constexpr std::uint32_t kCells = 4;
    constexpr std::uint32_t kUes = 8;

    sim::ShardedSimulation::Options options;
    options.lookahead = milliseconds(25);
    options.shards = shards;
    options.workers = workers;
    options.sync = sync;
    sim::ShardedSimulation sharded(options);

    std::vector<sim::Domain*> domains;
    for (std::uint32_t c = 0; c < kCells; ++c) {
        domains.push_back(&sharded.add_domain("cell" + std::to_string(c)));
    }
    sim::Domain& controller = sharded.add_domain("controller");
    ControlPlaneAggregator aggregator(controller);

    std::vector<std::unique_ptr<ControlPlaneShard>> planes;
    for (std::uint32_t c = 0; c < kCells; ++c) {
        ControlPlaneShard::Config config;
        config.flow_memory.idle_timeout = seconds(600);
        config.flow_memory.scan_period = seconds(5);
        config.flow_memory.track_clients = true;
        config.digest_period = seconds(10);
        planes.push_back(std::make_unique<ControlPlaneShard>(*domains[c],
                                                             aggregator, config));
        planes.back()->start();
    }

    workload::CorridorMobility::Options corridor_options;
    corridor_options.ues = kUes;
    corridor_options.cells = kCells;
    corridor_options.seed = 9;
    workload::CorridorMobility corridor(corridor_options);

    const net::ServiceAddress address{net::Ipv4{203, 0, 113, 5}, 80};
    for (std::uint32_t u = 0; u < kUes; ++u) {
        const net::Ipv4 ip{0x0a010000u + u};
        // Install the UE's flow at its home cell shortly after t=0.
        domains[0]->sim().schedule_at(
            milliseconds(static_cast<std::int64_t>(u) + 1),
            [&planes, ip, address] {
                planes[0]->packet_in(ip, address, "web", net::NodeId{100}, 8080,
                                     "cell0");
            });
        // Hand the client's slice along at each corridor crossing; the
        // closed form lets every shard know the instants without replaying
        // the merged trace.
        for (std::uint32_t k = 1; k < kCells; ++k) {
            domains[k - 1]->sim().schedule_at(
                corridor.crossing_time(u, k), [&planes, ip, k] {
                    planes[k - 1]->handoff_client(ip, *planes[k]);
                });
        }
    }

    HandoffDigest digest;
    sharded.run();
    digest.events = sharded.events_executed();
    digest.messages = sharded.messages_delivered();
    digest.now_ns = sharded.now().ns();
    std::ostringstream os;
    for (std::uint32_t c = 0; c < kCells; ++c) {
        os << "cell" << c << " out=" << planes[c]->handoffs_out()
           << " in=" << planes[c]->handoffs_in()
           << " handed=" << planes[c]->flows_handed_off()
           << " adopted=" << planes[c]->flows_adopted()
           << " live=" << planes[c]->memory().size()
           << " pins=" << planes[c]->packet_ins() << "\n";
    }
    os << "agg handed=" << aggregator.total_flows_handed_off()
       << " adopted=" << aggregator.total_flows_adopted()
       << " live=" << aggregator.total_live_flows() << "\n";
    digest.state = os.str();

    // Conservation: every flow handed off was adopted exactly once, and all
    // of them ended up at the corridor's last cell.
    std::uint64_t handed = 0, adopted = 0;
    for (const auto& plane : planes) {
        handed += plane->flows_handed_off();
        adopted += plane->flows_adopted();
    }
    EXPECT_EQ(handed, std::uint64_t{kUes} * (kCells - 1));
    EXPECT_EQ(adopted, handed);
    EXPECT_EQ(planes[kCells - 1]->memory().size(), kUes);
    for (std::uint32_t c = 0; c + 1 < kCells; ++c) {
        EXPECT_EQ(planes[c]->memory().size(), 0u) << "cell" << c;
    }
    return digest;
}

TEST(CrossShardHandoffTest, ConservedAndIdenticalEverywhere) {
    const HandoffDigest base =
        run_handoff_scenario(1, 1, sim::SyncMode::kChannel);
    EXPECT_GT(base.events, 0u);
    EXPECT_GT(base.messages, 0u);

    for (const auto sync : {sim::SyncMode::kBarrier, sim::SyncMode::kChannel}) {
        for (const auto& [shards, workers] :
             std::vector<std::pair<std::size_t, std::size_t>>{
                 {1, 1}, {2, 1}, {2, 4}, {8, 1}, {8, 4}}) {
            const HandoffDigest run = run_handoff_scenario(shards, workers, sync);
            EXPECT_EQ(run.events, base.events)
                << shards << "x" << workers << " sync " << static_cast<int>(sync);
            EXPECT_EQ(run.messages, base.messages)
                << shards << "x" << workers << " sync " << static_cast<int>(sync);
            EXPECT_EQ(run.now_ns, base.now_ns)
                << shards << "x" << workers << " sync " << static_cast<int>(sync);
            EXPECT_EQ(run.state, base.state)
                << shards << "x" << workers << " sync " << static_cast<int>(sync);
        }
    }
}

TEST(CrossShardHandoffTest, SameDomainHandoffIsLocal) {
    // Both shards in one domain: the handoff must not touch Domain::post
    // (no lookahead between a domain and itself) and still conserve flows.
    sim::ShardedSimulation::Options options;
    options.lookahead = milliseconds(25);
    sim::ShardedSimulation host(options);
    auto& domain = host.add_domain("site");
    ControlPlaneAggregator aggregator(domain);
    ControlPlaneShard::Config config;
    config.flow_memory.track_clients = true;
    ControlPlaneShard a(domain, aggregator, config);
    ControlPlaneShard b(domain, aggregator, config);

    const net::ServiceAddress address{net::Ipv4{203, 0, 113, 5}, 80};
    const net::Ipv4 ip{10, 0, 1, 1};
    domain.sim().schedule_at(milliseconds(1), [&] {
        a.packet_in(ip, address, "web", net::NodeId{100}, 8080, "siteA");
    });
    domain.sim().schedule_at(seconds(1), [&] { a.handoff_client(ip, b); });
    host.run();

    EXPECT_EQ(a.flows_handed_off(), 1u);
    EXPECT_EQ(b.flows_adopted(), 1u);
    EXPECT_EQ(a.memory().size(), 0u);
    EXPECT_EQ(b.memory().size(), 1u);
}

} // namespace
} // namespace tedge::sdn

// Kubernetes model tests: the API server with watches, the control-loop
// chain deployment -> replicaset -> pod -> scheduler -> kubelet ->
// endpoints -> kube-proxy, and the emergent scale-up latency.
#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <map>
#include <optional>
#include <ostream>
#include <set>
#include <string>
#include <tuple>
#include <vector>

#include "orchestrator/k8s/controller_manager.hpp"
#include "orchestrator/k8s/k8s_cluster.hpp"
#include "reply_callbacks.hpp"

namespace tedge::orchestrator::k8s {
namespace {

using sim::milliseconds;
using sim::seconds;

// ------------------------------------------------------------- API server

TEST(ApiServer, WatchReceivesEventsAfterLatency) {
    sim::Simulation simulation;
    ApiServer api(simulation, {.request_latency = milliseconds(10),
                               .watch_latency = milliseconds(25)});
    std::vector<std::pair<WatchEventType, sim::SimTime>> events;
    api.pods().watch([&](const WatchEvent& event) {
        events.emplace_back(event.type, simulation.now());
    });

    PodObj pod;
    pod.name = "p1";
    api.request([&] { api.pods().upsert("p1", pod); });
    simulation.run();
    ASSERT_EQ(events.size(), 1u);
    EXPECT_EQ(events[0].first, WatchEventType::kAdded);
    EXPECT_EQ(events[0].second, milliseconds(35)); // request + watch latency

    api.request([&] { api.pods().upsert("p1", pod); });
    api.request([&] { api.pods().erase("p1"); });
    simulation.run();
    ASSERT_EQ(events.size(), 3u);
    EXPECT_EQ(events[1].first, WatchEventType::kModified);
    EXPECT_EQ(events[2].first, WatchEventType::kDeleted);
}

TEST(ApiServer, StoreAccessors) {
    sim::Simulation simulation;
    ApiServer api(simulation);
    EXPECT_EQ(api.pods().get("x"), nullptr);
    PodObj pod;
    pod.name = "x";
    api.pods().upsert("x", pod);
    EXPECT_NE(api.pods().get("x"), nullptr);
    EXPECT_EQ(api.pods().size(), 1u);
    EXPECT_EQ(api.pods().names().front(), "x");
    EXPECT_FALSE(api.pods().erase("zz"));
    EXPECT_TRUE(api.pods().erase("x"));
}

// Write hooks run inside the write, before any watch event: a hook added
// late first sees the stored items in name order, then each replace as
// unindex(old) + index(new) on one stable item, and each erase as unindex.
TEST(ApiServer, WriteHooksSeeEveryWriteSynchronously) {
    sim::Simulation simulation;
    ApiServer api(simulation);
    PodObj pod;
    pod.pod_port = 1;
    api.pods().upsert("b", pod);
    api.pods().upsert("a", pod);
    std::vector<std::string> calls;
    const PodObj* stored_b = api.pods().get("b");
    api.pods().add_write_hook(
        {[&](const ObjectStore<PodObj>::Item& item) {
             calls.push_back("-" + item.first + std::to_string(item.second.pod_port));
         },
         [&](const ObjectStore<PodObj>::Item& item) {
             calls.push_back("+" + item.first + std::to_string(item.second.pod_port));
         }});
    pod.pod_port = 2;
    api.pods().upsert("b", pod);
    EXPECT_EQ(api.pods().get("b"), stored_b);
    api.pods().upsert("c", pod);
    EXPECT_TRUE(api.pods().erase("a"));
    EXPECT_FALSE(api.pods().erase("zz"));
    EXPECT_EQ(calls, (std::vector<std::string>{"+a1", "+b1", "-b1", "+b2", "+c2", "-a1"}));
    EXPECT_FALSE(simulation.has_pending_events()); // no watcher, no events
}

// A StoreIndex group lists its items in name order, as items() does, and
// follows key changes and erases.
TEST(ApiServer, StoreIndexGroupsFollowKeysInNameOrder) {
    sim::Simulation simulation;
    ApiServer api(simulation);
    const auto upsert = [&](const std::string& name, const std::string& owner) {
        PodObj pod;
        pod.name = name;
        pod.owner_rs = owner;
        api.pods().upsert(name, pod);
    };
    upsert("p3", "x");
    upsert("p1", "x");
    StoreIndex<PodObj> by_owner(api.pods(), [](const PodObj& p) { return &p.owner_rs; });
    upsert("p2", "x");
    upsert("p1", "y");
    upsert("p0", "x");
    api.pods().erase("p3");
    const auto names = [&](const std::string& owner) {
        std::vector<std::string> out;
        for (const auto* item : by_owner.group(owner)) out.push_back(item->first);
        return out;
    };
    EXPECT_EQ(names("x"), (std::vector<std::string>{"p0", "p2"}));
    EXPECT_EQ(names("y"), (std::vector<std::string>{"p1"}));
    EXPECT_TRUE(names("z").empty());
}

// ----------------------------------------------------------- full cluster

// A deleted pod is replaced by its own replicaset only, with two replicasets
// in the store: the sweep after a deletion syncs only the replicasets whose
// sync would act, here the deleted pod's owner.
TEST(ControllerManager, DeletedPodIsReplacedByItsOwnReplicaSet) {
    sim::Simulation simulation;
    ApiServer api(simulation);
    ControllerManager controllers(simulation, api);
    controllers.start();
    for (const auto& [name, replicas] : {std::pair{"a", 2}, std::pair{"b", 1}}) {
        DeploymentObj deployment;
        deployment.name = name;
        deployment.spec.name = name;
        deployment.replicas = replicas;
        api.request([&api, deployment] {
            api.deployments().upsert(deployment.name, deployment);
        });
    }
    simulation.run();
    const auto owned_by = [&](const std::string& rs) {
        std::vector<std::string> names;
        for (const auto& [pod_name, pod] : api.pods().items()) {
            if (pod.owner_rs == rs) names.push_back(pod_name);
        }
        return names;
    };
    const auto a_before = owned_by("a-rs");
    const auto b_before = owned_by("b-rs");
    ASSERT_EQ(a_before.size(), 2u);
    ASSERT_EQ(b_before.size(), 1u);

    const std::uint64_t syncs_before = controllers.replicaset_syncs();
    api.request([&] { api.pods().erase(a_before.front()); });
    simulation.run();

    const auto a_after = owned_by("a-rs");
    ASSERT_EQ(a_after.size(), 2u);
    EXPECT_EQ(std::count(a_after.begin(), a_after.end(), a_before.front()), 0);
    EXPECT_EQ(std::count(a_after.begin(), a_after.end(), a_before.back()), 1);
    EXPECT_EQ(owned_by("b-rs"), b_before);
    // One sync of the owner for the deletion; the settled replicaset is not
    // synced, and the replacement pod's creation triggers no replicaset sync.
    EXPECT_EQ(controllers.replicaset_syncs() - syncs_before, 1u);
}

struct K8sFixture : ::testing::Test {
    K8sFixture() {
        node = topo.add_host("egs-k8s", net::Ipv4{10, 0, 0, 3}, 12);
        registry = std::make_unique<container::Registry>(
            simulation, container::RegistryProfile{.host = "docker.io"});
        registries.add(*registry);
        cluster = std::make_unique<K8sCluster>("k8s", simulation, topo,
                                               std::vector{node}, endpoints,
                                               registries, sim::Rng{1});

        app.name = "web";
        app.init_median = milliseconds(30);
        app.service_median = milliseconds(1);
        app.port = 80;

        image.ref = *container::ImageRef::parse("web:1");
        image.layers = container::make_layers("web", sim::mib(30), 3);
        registry->put(image);

        spec.name = "svc";
        spec.cloud_address = {net::Ipv4{203, 0, 113, 1}, 80};
        spec.expose_port = 80;
        spec.target_port = 80;
        spec.labels = {{"app", "svc"}, {"edge.service", "svc"}};
        ContainerTemplate tmpl;
        tmpl.name = "web";
        tmpl.image = image.ref;
        tmpl.app = &app;
        tmpl.container_port = 80;
        spec.containers.push_back(tmpl);
    }

    void pull() {
        bool ok = false;
        cluster->ensure_image(spec, [&](bool success, const container::PullTiming&) {
            ok = success;
        });
        simulation.run_until(simulation.now() + seconds(60));
        ASSERT_TRUE(ok);
    }

    void create() {
        bool ok = false;
        cluster->create_service(spec, [&](bool success) { ok = success; });
        simulation.run_until(simulation.now() + seconds(5));
        ASSERT_TRUE(ok);
    }

    /// Returns the virtual time from the scale_up call until the service
    /// port accepted traffic.
    sim::SimTime scale_up_and_wait_ready() {
        const sim::SimTime t0 = simulation.now();
        cluster->scale_up(spec.name, [](bool ok) { ASSERT_TRUE(ok); });
        while (simulation.now() - t0 < seconds(30)) {
            simulation.run_until(simulation.now() + milliseconds(100));
            const auto ready = cluster->ready_instances(spec.name);
            if (!ready.empty()) return simulation.now() - t0;
        }
        ADD_FAILURE() << "service never became ready";
        return sim::SimTime::zero();
    }

    sim::Simulation simulation;
    net::Topology topo;
    net::EndpointDirectory endpoints;
    net::NodeId node;
    RegistryDirectory registries;
    std::unique_ptr<container::Registry> registry;
    std::unique_ptr<K8sCluster> cluster;
    container::AppProfile app;
    container::Image image;
    ServiceSpec spec;
};

TEST_F(K8sFixture, CreateMakesDeploymentAndServiceWithZeroReplicas) {
    pull();
    create();
    EXPECT_TRUE(cluster->has_service("svc"));
    const auto* deployment = cluster->api().deployments().get("svc");
    ASSERT_NE(deployment, nullptr);
    EXPECT_EQ(deployment->replicas, 0);
    const auto* service = cluster->api().services().get("svc");
    ASSERT_NE(service, nullptr);
    EXPECT_EQ(service->expose_port, 80);
    EXPECT_EQ(service->selector.at("edge.service"), "svc");
    // Scale-to-zero: the controllers settle with an RS but no pods.
    simulation.run_until(simulation.now() + seconds(2));
    EXPECT_NE(cluster->api().replicasets().get("svc-rs"), nullptr);
    EXPECT_EQ(cluster->api().pods().size(), 0u);
    EXPECT_TRUE(cluster->instances("svc").empty());
}

TEST_F(K8sFixture, ScaleUpDrivesControlLoopChainToReadyPod) {
    pull();
    create();
    const auto elapsed = scale_up_and_wait_ready();

    // One pod, bound to our node, Running and ready.
    ASSERT_EQ(cluster->api().pods().size(), 1u);
    const auto& pod = cluster->api().pods().items().begin()->second;
    EXPECT_EQ(pod.node, node);
    EXPECT_EQ(pod.phase, PodPhase::kRunning);
    EXPECT_TRUE(pod.ready);

    // Endpoints propagated and kube-proxy opened the node port.
    const auto* service = cluster->api().services().get("svc");
    ASSERT_EQ(service->endpoints.size(), 1u);
    const auto instances = cluster->ready_instances("svc");
    ASSERT_EQ(instances.size(), 1u);
    EXPECT_TRUE(topo.port_open(node, instances[0].port));
    EXPECT_NE(endpoints.find(node, instances[0].port), nullptr);

    // Emergent latency: an orchestrator-grade multi-second chain, far above
    // a bare container start, in the paper's ~3 s ballpark.
    EXPECT_GT(elapsed, seconds(2));
    EXPECT_LT(elapsed, seconds(6));
}

TEST_F(K8sFixture, ServicePortForwardsToPod) {
    pull();
    create();
    scale_up_and_wait_ready();
    const auto instances = cluster->ready_instances("svc");
    ASSERT_EQ(instances.size(), 1u);
    const auto handler = endpoints.find(node, instances[0].port);
    ASSERT_NE(handler, nullptr);
    testkit::ReplyCallbacks replies;
    bool replied = false;
    (*handler)(100, replies([&](sim::Bytes size) {
        EXPECT_EQ(size, app.response_size);
        replied = true;
    }));
    simulation.run_until(simulation.now() + seconds(1));
    EXPECT_TRUE(replied);
}

TEST_F(K8sFixture, ScaleDownTerminatesPodAndClosesPort) {
    pull();
    create();
    scale_up_and_wait_ready();
    const auto port = cluster->ready_instances("svc")[0].port;

    cluster->scale_down("svc", [](bool ok) { ASSERT_TRUE(ok); });
    simulation.run_until(simulation.now() + seconds(10));
    EXPECT_EQ(cluster->api().pods().size(), 0u);
    EXPECT_TRUE(cluster->instances("svc").empty());
    EXPECT_FALSE(topo.port_open(node, port));
    EXPECT_EQ(endpoints.find(node, port), nullptr);
    // Deployment and Service survive (scale to zero, not removed).
    EXPECT_TRUE(cluster->has_service("svc"));
}

TEST_F(K8sFixture, RemoveServiceCascades) {
    pull();
    create();
    scale_up_and_wait_ready();
    bool removed = false;
    cluster->remove_service("svc", [&](bool ok) { removed = ok; });
    simulation.run_until(simulation.now() + seconds(10));
    EXPECT_TRUE(removed);
    EXPECT_FALSE(cluster->has_service("svc"));
    EXPECT_EQ(cluster->api().pods().size(), 0u);
    EXPECT_EQ(cluster->api().replicasets().get("svc-rs"), nullptr);
    EXPECT_EQ(cluster->api().services().get("svc"), nullptr);
}

TEST_F(K8sFixture, MultipleReplicasViaRepeatedScaleUp) {
    pull();
    create();
    scale_up_and_wait_ready();
    cluster->scale_up("svc", [](bool ok) { ASSERT_TRUE(ok); });
    simulation.run_until(simulation.now() + seconds(10));
    EXPECT_EQ(cluster->api().pods().size(), 2u);
    EXPECT_EQ(cluster->instances("svc").size(), 2u);
    EXPECT_EQ(cluster->total_instances(), 2u);
}

TEST_F(K8sFixture, KubeletPullsMissingImageOnDemand) {
    // No pre-pull: the kubelet pulls with IfNotPresent semantics.
    create();
    const auto elapsed = scale_up_and_wait_ready();
    EXPECT_TRUE(cluster->has_image(spec));
    EXPECT_GT(elapsed, seconds(2));
}

TEST_F(K8sFixture, DistinctNodePortsForManyServices) {
    pull();
    std::set<std::uint16_t> ports;
    for (int i = 0; i < 8; ++i) {
        ServiceSpec s = spec;
        s.name = "svc" + std::to_string(i);
        s.labels = {{"app", s.name}, {"edge.service", s.name}};
        cluster->create_service(s, [](bool ok) { ASSERT_TRUE(ok); });
    }
    simulation.run_until(simulation.now() + seconds(5));
    for (int i = 0; i < 8; ++i) {
        const auto* service =
            cluster->api().services().get("svc" + std::to_string(i));
        ASSERT_NE(service, nullptr);
        EXPECT_TRUE(ports.insert(service->node_port).second);
    }
    EXPECT_TRUE(ports.contains(80));
}

TEST_F(K8sFixture, CustomPlacementPolicyIsUsed) {
    // A second node plus a policy pinning pods to it by schedulerName.
    const auto node2 = topo.add_host("worker2", net::Ipv4{10, 0, 0, 9}, 4);
    K8sCluster two_nodes("k8s2", simulation, topo, {node, node2}, endpoints,
                         registries, sim::Rng{2});

    class PinToSecond final : public PodPlacementPolicy {
    public:
        explicit PinToSecond(net::NodeId target) : target_(target) {}
        std::optional<net::NodeId> pick(const PodObj&,
                                        const std::vector<net::NodeId>&,
                                        const ApiServer&) override {
            return target_;
        }

    private:
        net::NodeId target_;
    };
    two_nodes.scheduler().register_policy("pin2",
                                          std::make_unique<PinToSecond>(node2));

    ServiceSpec pinned = spec;
    pinned.name = "pinned";
    pinned.labels = {{"app", "pinned"}, {"edge.service", "pinned"}};
    pinned.scheduler_name = "pin2";
    two_nodes.create_service(pinned, [](bool ok) { ASSERT_TRUE(ok); });
    simulation.run_until(simulation.now() + seconds(2));
    two_nodes.scale_up("pinned", [](bool ok) { ASSERT_TRUE(ok); });
    simulation.run_until(simulation.now() + seconds(20));

    const auto instances = two_nodes.instances("pinned");
    ASSERT_EQ(instances.size(), 1u);
    EXPECT_EQ(instances[0].node, node2);
}

/// What the endpoints controller must publish for `svc`: every running,
/// ready, bound pod whose labels carry the whole selector, in pod-name order.
std::vector<EndpointEntry> brute_force_endpoints(const ApiServer& api,
                                                 const ServiceObj& svc) {
    std::vector<EndpointEntry> out;
    for (const auto& [name, pod] : api.pods().items()) {
        if (pod.phase != PodPhase::kRunning || !pod.ready || !pod.node.valid()) continue;
        const bool selected = std::all_of(
            svc.selector.begin(), svc.selector.end(), [&pod](const auto& pair) {
                const auto it = pod.spec.labels.find(pair.first);
                return it != pod.spec.labels.end() && it->second == pair.second;
            });
        if (selected) out.push_back({name, pod.node, pod.pod_port});
    }
    return out;
}

TEST_F(K8sFixture, EndpointsFollowReadyPodsAcrossInterleavedScaling) {
    pull();
    constexpr int kServices = 9;
    for (int i = 0; i < kServices; ++i) {
        ServiceSpec s = spec;
        s.name = "svc" + std::to_string(i);
        s.labels = {{"app", s.name}, {"edge.service", s.name}};
        cluster->create_service(s, [](bool ok) { ASSERT_TRUE(ok); });
    }
    simulation.run_until(simulation.now() + seconds(5));
    // Selectors without edge.service: the endpoints controller must fall
    // back to every ready pod and still apply the selector.
    auto& api = cluster->api();
    ServiceObj by_app;
    by_app.name = "by-app";
    by_app.node_port = 32001;
    by_app.selector = {{"app", "svc3"}};
    ServiceObj all;
    all.name = "all";
    all.node_port = 32002;
    api.request([&api, by_app, all] {
        api.services().upsert(by_app.name, by_app);
        api.services().upsert(all.name, all);
    });

    std::size_t max_endpoints = 0;
    std::size_t max_by_app = 0;
    auto name_of = [](int i) { return "svc" + std::to_string(i % kServices); };
    for (int step = 0; step < 30; ++step) {
        // Mostly scale-ups for 16 steps, then mostly scale-downs; the
        // minority moves land in the same step, unsettled, on another
        // service (possibly one already at zero).
        const bool rising = step < 16;
        if (rising || step % 4 == 0) {
            cluster->scale_up(name_of(step), [](bool ok) { ASSERT_TRUE(ok); });
        }
        if (!rising || step % 3 == 2) {
            cluster->scale_down(name_of(step * 5 + 2), [](bool ok) { ASSERT_TRUE(ok); });
        }
        simulation.run_until(simulation.now() + seconds(10));
        for (const auto& [name, svc] : api.services().items()) {
            EXPECT_EQ(svc.endpoints, brute_force_endpoints(api, svc))
                << "service " << name << " after step " << step;
        }
        max_endpoints = std::max(max_endpoints, api.services().get("all")->endpoints.size());
        max_by_app = std::max(max_by_app, api.services().get("by-app")->endpoints.size());
    }
    // The schedule really moved pods in and out of service.
    EXPECT_GE(max_endpoints, 8u);
    EXPECT_GE(max_by_app, 1u);
    EXPECT_LT(api.services().get("all")->endpoints.size(), max_endpoints);
}

// ------------------------------------- endpoints: dirty set vs full scan

/// The endpoints loop as a full scan: on the same triggers and latency as
/// ControllerManager's, every sync recomputes every service from the whole
/// pod store and writes each one whose stored endpoints differ.
class FullScanEndpoints {
public:
    FullScanEndpoints(sim::Simulation& sim, ApiServer& api, sim::SimTime latency)
        : sim_(sim), api_(api), latency_(latency) {
        api_.pods().watch([this](const WatchEvent&) { schedule(); });
        api_.services().watch([this](const WatchEvent& event) {
            if (event.type != WatchEventType::kDeleted) schedule();
        });
    }

private:
    void schedule() { sim_.schedule(latency_, [this] { sync(); }); }

    void sync() {
        for (const auto& [name, svc] : api_.services().items()) {
            auto endpoints = brute_force_endpoints(api_, svc);
            if (endpoints == svc.endpoints) continue;
            ServiceObj updated = svc;
            updated.endpoints = std::move(endpoints);
            api_.request([this, updated] { api_.services().upsert(updated.name, updated); });
        }
    }

    sim::Simulation& sim_;
    ApiServer& api_;
    sim::SimTime latency_;
};

/// Leaves every pod unbound, so the scheduler writes nothing.
class HoldPolicy final : public PodPlacementPolicy {
public:
    std::optional<net::NodeId> pick(const PodObj&, const std::vector<net::NodeId>&,
                                    const ApiServer&) override {
        return std::nullopt;
    }
};

struct ServiceWrite {
    sim::SimTime at;
    std::string service;
    std::vector<EndpointEntry> endpoints;
    bool operator==(const ServiceWrite&) const = default;
};

std::ostream& operator<<(std::ostream& os, const ServiceWrite& w) {
    os << w.at.seconds() << "s " << w.service << " [";
    for (const auto& ep : w.endpoints) os << ' ' << ep.pod;
    return os << " ]";
}

/// Every write to `api`'s services store, as the store sees it.
void record_service_writes(sim::Simulation& sim, ApiServer& api,
                           std::vector<ServiceWrite>& log) {
    api.services().add_write_hook(
        {[](const ObjectStore<ServiceObj>::Item&) {},
         [&sim, &log](const ObjectStore<ServiceObj>::Item& item) {
             log.push_back({sim.now(), item.first, item.second.endpoints});
         }});
}

struct EndpointsDifferential : K8sFixture, ::testing::WithParamInterface<std::uint64_t> {};

// Seeded scripts of pod and service writes and erases, a few milliseconds
// apart -- less than the 8 ms request, 25 ms watch and 40 ms sync latencies,
// so syncs land between a write and its watch event -- go to the production
// K8sCluster's store and to a second ApiServer run by FullScanEndpoints. The
// endpoints writes (time, service, endpoints) and request counts must agree,
// and after every step the cluster's index-fed queries must equal brute
// force over its pod store. Pods sit on nodes outside the cluster or none,
// under a scheduler policy that binds nothing, so no other loop writes.
TEST_P(EndpointsDifferential, DirtySetWritesWhatAFullScanWrites) {
    sim::Rng rng(GetParam());
    cluster->scheduler().register_policy("hold", std::make_unique<HoldPolicy>());
    ApiServer& api = cluster->api();
    sim::Simulation ref_sim;
    ApiServer ref_api(ref_sim);
    FullScanEndpoints full_scan(ref_sim, ref_api, ControllerManagerConfig{}.endpoints_sync);
    std::vector<ServiceWrite> writes;
    std::vector<ServiceWrite> ref_writes;
    record_service_writes(simulation, api, writes);
    record_service_writes(ref_sim, ref_api, ref_writes);

    const std::vector<std::string> groups = {"a", "b", "c"};
    const std::vector<std::string> apps = {"x", "y"};
    const std::vector<net::NodeId> nodes = {net::NodeId{}, net::NodeId{node.value + 100},
                                            net::NodeId{node.value + 101}};
    const auto pick = [&rng](const auto& options) {
        return options[static_cast<std::size_t>(
            rng.uniform_int(0, static_cast<std::int64_t>(options.size()) - 1))];
    };
    const auto random_pod = [&](const std::string& name) {
        PodObj pod;
        pod.name = name;
        pod.owner_rs = pick(groups) + "-rs";
        pod.scheduler_name = "hold";
        pod.spec.name = pick(groups);
        if (rng.chance(0.8)) pod.spec.labels["edge.service"] = pick(groups);
        if (rng.chance(0.6)) pod.spec.labels["app"] = pick(apps);
        pod.node = pick(nodes);
        pod.phase = static_cast<PodPhase>(rng.uniform_int(0, 3));
        pod.ready = rng.chance(0.6);
        pod.pod_port = static_cast<std::uint16_t>(rng.uniform_int(20000, 20003));
        pod.resources = {static_cast<std::uint64_t>(rng.uniform_int(0, 500)),
                         static_cast<std::uint64_t>(rng.uniform_int(0, 1 << 20))};
        return pod;
    };
    const auto flip = [&](PodObj pod) {
        switch (rng.uniform_int(0, 4)) {
            case 0: pod.phase = static_cast<PodPhase>(rng.uniform_int(0, 3)); break;
            case 1: pod.ready = !pod.ready; break;
            case 2: pod.node = pick(nodes); break;
            case 3:
                if (rng.chance(0.3)) pod.spec.labels.erase("edge.service");
                else pod.spec.labels["edge.service"] = pick(groups);
                break;
            default: pod.spec.name = pick(groups); break;
        }
        return pod;
    };
    const auto random_service = [&](const std::string& name) {
        ServiceObj svc;
        svc.name = name;
        svc.node_port = static_cast<std::uint16_t>(rng.uniform_int(31000, 31005));
        const auto shape = rng.uniform_int(0, 9);
        if (shape < 6) svc.selector["edge.service"] = pick(groups);
        if (shape >= 4 && shape < 9) svc.selector["app"] = pick(apps);
        // Usually keep what is stored; sometimes store stale endpoints.
        if (const auto* stored = api.services().get(name)) svc.endpoints = stored->endpoints;
        if (rng.chance(0.3)) svc.endpoints = {{"p0", pick(nodes), 20000}};
        return svc;
    };
    // A script write goes to both stores now, or through both API servers.
    const auto apply = [&](const std::function<void(ApiServer&)>& write) {
        if (rng.chance(0.5)) {
            write(api);
            write(ref_api);
        } else {
            api.request([&api, write] { write(api); });
            ref_api.request([&ref_api, write] { write(ref_api); });
        }
    };
    // The pod-store queries, by brute force over the store.
    const auto expect_queries_match = [&] {
        std::size_t live = 0;
        ResourceRequest used;
        for (const auto& [name, pod] : api.pods().items()) {
            if (pod.phase == PodPhase::kTerminating) continue;
            ++live;
            used += pod.resources;
        }
        ASSERT_EQ(cluster->total_instances(), live);
        ASSERT_EQ(cluster->utilization().used, used);
        for (const auto& service : groups) {
            const auto* svc = api.services().get(service);
            const std::uint16_t expose = svc != nullptr ? svc->node_port : 0;
            using Instance = std::tuple<net::NodeId, std::uint16_t, bool, sim::SimTime>;
            std::vector<Instance> want;
            for (const auto& [name, pod] : api.pods().items()) {
                if (pod.spec.name != service || pod.phase == PodPhase::kTerminating ||
                    !pod.node.valid()) {
                    continue;
                }
                const std::uint16_t port = expose != 0 ? expose : pod.spec.expose_port;
                want.emplace_back(pod.node, port, topo.port_open(pod.node, port), pod.phase_since);
            }
            std::vector<Instance> got;
            for (const auto& info : cluster->instances(service)) {
                got.emplace_back(info.node, info.port, info.ready, info.since);
            }
            ASSERT_EQ(got, want) << "instances of " << service;
        }
    };

    const std::vector<std::string> services = {"a", "b", "c", "d", "e"};
    std::size_t script_service_writes = 0;
    std::size_t compared = 0;
    sim::SimTime now = simulation.now();
    for (int step = 0; step < 1500; ++step) {
        now += milliseconds(rng.uniform_int(1, 12));
        simulation.run_until(now);
        ref_sim.run_until(now);
        SCOPED_TRACE(::testing::Message() << "step " << step << " at " << now.seconds() << " s");
        const auto op = rng.uniform_int(0, 99);
        const std::string pod_name = "p" + std::to_string(rng.uniform_int(0, 11));
        const std::string svc_name = pick(services);
        if (op < 45) {
            const PodObj* stored = api.pods().get(pod_name);
            PodObj pod = stored != nullptr && rng.chance(0.7) ? flip(*stored) : random_pod(pod_name);
            pod.phase_since = now;
            apply([pod](ApiServer& a) { a.pods().upsert(pod.name, pod); });
        } else if (op < 55) {
            apply([pod_name](ApiServer& a) { a.pods().erase(pod_name); });
        } else if (op < 72) {
            const ServiceObj svc = random_service(svc_name);
            apply([svc](ApiServer& a) { a.services().upsert(svc.name, svc); });
            ++script_service_writes;
        } else if (op < 76) {
            apply([svc_name](ApiServer& a) { a.services().erase(svc_name); });
        }
        ASSERT_NO_FATAL_FAILURE(expect_queries_match());
        ASSERT_EQ(api.pods().size(), ref_api.pods().size());
        ASSERT_EQ(api.request_count(), ref_api.request_count());
        for (; compared < std::min(writes.size(), ref_writes.size()); ++compared) {
            ASSERT_EQ(writes[compared], ref_writes[compared]) << "service write " << compared;
        }
    }
    simulation.run_until(now + seconds(2));
    ref_sim.run_until(now + seconds(2));
    EXPECT_EQ(writes, ref_writes);
    EXPECT_EQ(api.request_count(), ref_api.request_count());
    for (const auto& [name, svc] : api.services().items()) {
        EXPECT_EQ(svc.endpoints, brute_force_endpoints(api, svc)) << "service " << name;
    }
    // The controllers wrote often, not just the script.
    EXPECT_GT(writes.size(), script_service_writes + 100);
}

INSTANTIATE_TEST_SUITE_P(Seeds, EndpointsDifferential,
                         ::testing::Values(21, 22, 23, 24, 25, 26, 27, 28));

// ------------------------------ replicasets: unsettled set vs full sweep

/// The replicaset loop with a full sweep: on the same triggers and latency
/// as ControllerManager's, one replicaset is synced after its watch event
/// and every replicaset, in name order, after each pod deletion. A sync
/// counts owned pods by brute force and makes its pods and writes exactly
/// as ControllerManager's does.
class FullSweepReplicaSets {
public:
    FullSweepReplicaSets(sim::Simulation& sim, ApiServer& api,
                         ControllerManagerConfig config = {})
        : sim_(sim), api_(api), config_(config), next_pod_port_(config.pod_port_base) {
        api_.replicasets().watch([this](const WatchEvent& event) {
            if (event.type == WatchEventType::kDeleted) return;
            sim_.schedule(config_.replicaset_sync, [this, name = event.name] { sync(name); });
        });
        api_.pods().watch([this](const WatchEvent& event) {
            if (event.type != WatchEventType::kDeleted) return;
            sim_.schedule(config_.replicaset_sync, [this] {
                for (const auto& [name, rs] : api_.replicasets().items()) sync(name);
            });
        });
    }

    [[nodiscard]] std::uint64_t syncs() const { return syncs_; }

private:
    void sync(const std::string& name) {
        ++syncs_;
        const auto* rs = api_.replicasets().get(name);
        if (rs == nullptr) return;
        std::vector<const PodObj*> owned;
        for (const auto& [pod_name, pod] : api_.pods().items()) {
            if (pod.owner_rs == name && pod.phase != PodPhase::kTerminating &&
                !pending_terminations_.contains(pod_name)) {
                owned.push_back(&pod);
            }
        }
        const int want = rs->replicas;
        const int have = static_cast<int>(owned.size()) + pending_creates_[name];
        if (have < want) {
            for (int i = 0; i < want - have; ++i) {
                PodObj pod;
                pod.name = name + "-" + std::to_string(pod_counter_++);
                pod.owner_rs = name;
                pod.spec = rs->spec;
                pod.scheduler_name = rs->spec.scheduler_name;
                pod.resources = rs->spec.resource_request();
                pod.pod_port = next_pod_port_++;
                if (next_pod_port_ < config_.pod_port_base) next_pod_port_ = config_.pod_port_base;
                pod.phase = PodPhase::kPending;
                pod.phase_since = sim_.now();
                ++pending_creates_[name];
                api_.request([this, pod, name] {
                    --pending_creates_[name];
                    api_.pods().upsert(pod.name, pod);
                });
            }
        } else if (have > want) {
            std::sort(owned.begin(), owned.end(), [](const PodObj* a, const PodObj* b) {
                if (a->ready != b->ready) return !a->ready;
                return a->phase_since > b->phase_since;
            });
            const int excess = std::min(have - want, static_cast<int>(owned.size()));
            for (int i = 0; i < excess; ++i) {
                PodObj updated = *owned[static_cast<std::size_t>(i)];
                updated.phase = PodPhase::kTerminating;
                updated.ready = false;
                updated.phase_since = sim_.now();
                pending_terminations_.insert(updated.name);
                api_.request([this, updated] {
                    pending_terminations_.erase(updated.name);
                    api_.pods().upsert(updated.name, updated);
                });
            }
        }
    }

    sim::Simulation& sim_;
    ApiServer& api_;
    ControllerManagerConfig config_;
    std::map<std::string, int> pending_creates_;
    std::set<std::string> pending_terminations_;
    std::uint64_t pod_counter_ = 0;
    std::uint16_t next_pod_port_;
    std::uint64_t syncs_ = 0;
};

/// A pod write as the store sees it: '-' before a write replaces or erases
/// the pod, '+' after a write stores it.
struct PodWrite {
    sim::SimTime at;
    char kind;
    std::string pod;
    std::string owner;
    PodPhase phase;
    bool ready;
    std::uint16_t pod_port;
    bool operator==(const PodWrite&) const = default;
};

std::ostream& operator<<(std::ostream& os, const PodWrite& w) {
    return os << w.at.seconds() << "s " << w.kind << w.pod << " of " << w.owner << " phase "
              << static_cast<int>(w.phase) << (w.ready ? " ready" : "") << " port "
              << w.pod_port;
}

void record_pod_writes(sim::Simulation& sim, ApiServer& api, std::vector<PodWrite>& log) {
    const auto hook = [&sim, &log](char kind) {
        return [&sim, &log, kind](const ObjectStore<PodObj>::Item& item) {
            const PodObj& pod = item.second;
            log.push_back({sim.now(), kind, item.first, pod.owner_rs, pod.phase, pod.ready,
                           pod.pod_port});
        };
    };
    api.pods().add_write_hook({hook('-'), hook('+')});
}

struct ReplicaSetDifferential : ::testing::TestWithParam<std::uint64_t> {};

// Seeded scripts of replicaset writes and erases, pod deletions, pod phase
// and readiness changes and foreign pods, a few milliseconds apart -- less
// than the 8 ms request, 25 ms watch and 35 ms sync latencies, so syncs
// land between a write and its watch event -- go to a ControllerManager and
// to a FullSweepReplicaSets on a second ApiServer. No deployment or service
// exists, so only the replicaset loops write. Every pod write (time, pod,
// owner, phase, readiness, port) and the request counts must agree.
TEST_P(ReplicaSetDifferential, UnsettledSetWritesWhatAFullSweepWrites) {
    sim::Rng rng(GetParam());
    sim::Simulation simulation;
    ApiServer api(simulation);
    ControllerManager controllers(simulation, api);
    controllers.start();
    sim::Simulation ref_sim;
    ApiServer ref_api(ref_sim);
    FullSweepReplicaSets full_sweep(ref_sim, ref_api);
    std::vector<PodWrite> writes;
    std::vector<PodWrite> ref_writes;
    record_pod_writes(simulation, api, writes);
    record_pod_writes(ref_sim, ref_api, ref_writes);

    const std::vector<std::string> groups = {"a", "b", "c", "d", "e"};
    const auto pick = [&rng](const auto& options) {
        return options[static_cast<std::size_t>(
            rng.uniform_int(0, static_cast<std::int64_t>(options.size()) - 1))];
    };
    const auto apply = [&](const std::function<void(ApiServer&)>& write) {
        if (rng.chance(0.5)) {
            write(api);
            write(ref_api);
        } else {
            api.request([&api, write] { write(api); });
            ref_api.request([&ref_api, write] { write(ref_api); });
        }
    };

    std::size_t deletions = 0;
    std::size_t compared = 0;
    sim::SimTime now = simulation.now();
    for (int step = 0; step < 1500; ++step) {
        now += milliseconds(rng.uniform_int(1, 12));
        simulation.run_until(now);
        ref_sim.run_until(now);
        SCOPED_TRACE(::testing::Message() << "step " << step << " at " << now.seconds() << " s");
        const auto op = rng.uniform_int(0, 99);
        const std::vector<std::string> pods = api.pods().names();
        if (op < 25) {
            ReplicaSetObj rs;
            rs.spec.name = pick(groups);
            rs.name = rs.spec.name + "-rs";
            rs.replicas = static_cast<int>(rng.uniform_int(0, 3));
            apply([rs](ApiServer& a) { a.replicasets().upsert(rs.name, rs); });
        } else if (op < 32) {
            const std::string name = pick(groups) + "-rs";
            apply([name](ApiServer& a) { a.replicasets().erase(name); });
        } else if (op < 60 && !pods.empty()) {
            const std::string name = pick(pods);
            apply([name](ApiServer& a) { a.pods().erase(name); });
            ++deletions;
        } else if (op < 85 && !pods.empty()) {
            PodObj pod = *api.pods().get(pick(pods));
            pod.phase = static_cast<PodPhase>(rng.uniform_int(0, 3));
            pod.ready = rng.chance(0.5);
            pod.phase_since = now;
            apply([pod](ApiServer& a) { a.pods().upsert(pod.name, pod); });
        } else if (op < 92) {
            PodObj pod;
            pod.name = "foreign-" + std::to_string(rng.uniform_int(0, 5));
            pod.owner_rs = pick(groups) + "-rs";
            pod.phase = static_cast<PodPhase>(rng.uniform_int(0, 3));
            pod.phase_since = now;
            apply([pod](ApiServer& a) { a.pods().upsert(pod.name, pod); });
        }
        ASSERT_EQ(api.pods().size(), ref_api.pods().size());
        ASSERT_EQ(api.request_count(), ref_api.request_count());
        for (; compared < std::min(writes.size(), ref_writes.size()); ++compared) {
            ASSERT_EQ(writes[compared], ref_writes[compared]) << "pod write " << compared;
        }
    }
    simulation.run_until(now + seconds(2));
    ref_sim.run_until(now + seconds(2));
    EXPECT_EQ(writes, ref_writes);
    EXPECT_EQ(api.request_count(), ref_api.request_count());
    // The script deleted pods often, the controllers replaced them, and the
    // sweeps synced fewer replicasets than a sync of every one would.
    EXPECT_GT(deletions, 200u);
    EXPECT_GT(writes.size(), 2000u);
    EXPECT_LT(controllers.replicaset_syncs(), full_sweep.syncs());
}

INSTANTIATE_TEST_SUITE_P(Seeds, ReplicaSetDifferential,
                         ::testing::Values(31, 32, 33, 34, 35, 36, 37, 38));

TEST_F(K8sFixture, ScaleUpUnknownServiceReportsFalse) {
    bool result = true;
    cluster->scale_up("ghost", [&](bool ok) { result = ok; });
    simulation.run_until(simulation.now() + seconds(1));
    EXPECT_FALSE(result);
}

} // namespace
} // namespace tedge::orchestrator::k8s

// K8sCluster: the Cluster facade over the simulated Kubernetes control
// plane. Create makes a Deployment (replicas=0, "scale to zero") plus a
// Service; Scale Up patches the Deployment and lets the control loops do
// their work: deployment controller -> replicaset controller -> scheduler ->
// kubelet (sandbox + containers) -> status -> endpoints -> kube-proxy. The
// exposed service port only accepts traffic after kube-proxy has programmed
// the rules AND the application inside the pod is listening -- which is why
// Kubernetes needs ~3 s where plain Docker needs well under one.
#pragma once

#include <map>
#include <memory>
#include <set>
#include <string>
#include <unordered_map>
#include <vector>

#include "orchestrator/cluster.hpp"
#include "orchestrator/k8s/api_server.hpp"
#include "orchestrator/k8s/controller_manager.hpp"
#include "orchestrator/k8s/kube_scheduler.hpp"
#include "orchestrator/k8s/kubelet.hpp"
#include "orchestrator/k8s/store_index.hpp"
#include "simcore/logging.hpp"

namespace tedge::orchestrator::k8s {

struct K8sClusterConfig {
    ApiServerConfig api;
    ControllerManagerConfig controllers;
    KubeSchedulerConfig scheduler;
    KubeletConfig kubelet;
    container::RuntimeCostModel runtime_costs;
    container::PullerConfig puller;
    sim::SimTime kubeproxy_program = sim::milliseconds(150); ///< iptables write
    sim::SimTime proxy_poll = sim::milliseconds(20);         ///< alias readiness poll
    /// Uniform per-node CPU/mem budget; default unlimited. Propagated to the
    /// kube-scheduler's capacity filter and each kubelet's allocatable.
    ResourceCapacity node_capacity;
};

class K8sCluster final : public Cluster {
public:
    K8sCluster(std::string name, sim::Simulation& sim, net::Topology& topo,
               std::vector<net::NodeId> nodes, net::EndpointDirectory& endpoints,
               RegistryDirectory& registries, sim::Rng rng,
               K8sClusterConfig config = {});
    ~K8sCluster() override;

    [[nodiscard]] const std::string& name() const override { return name_; }
    [[nodiscard]] net::NodeId location() const override { return nodes_.front(); }

    void ensure_image(const ServiceSpec& spec, PullCallback done) override;
    [[nodiscard]] bool has_image(const ServiceSpec& spec) const override;
    void create_service(const ServiceSpec& spec, BoolCallback done) override;
    [[nodiscard]] bool has_service(const std::string& name) const override;
    void scale_up(const std::string& name, BoolCallback done) override;
    void scale_down(const std::string& name, BoolCallback done) override;
    void remove_service(const std::string& name, BoolCallback done) override;
    void delete_image(const ServiceSpec& spec) override;
    void append_instances(const std::string& name,
                          std::vector<InstanceInfo>& out) const override;
    [[nodiscard]] std::size_t total_instances() const override;
    [[nodiscard]] ClusterUtilization utilization() const override;
    [[nodiscard]] AdmissionReason admits(const ServiceSpec& spec) const override;

    [[nodiscard]] ApiServer& api() { return api_; }
    [[nodiscard]] const ApiServer& api() const { return api_; }
    [[nodiscard]] KubeScheduler& scheduler() { return scheduler_; }
    [[nodiscard]] const std::vector<net::NodeId>& nodes() const { return nodes_; }

private:
    struct NodeAgents {
        net::NodeId node;
        container::ImageStore store;
        std::unique_ptr<container::Puller> puller;
        std::unique_ptr<container::ContainerRuntime> runtime;
        std::unique_ptr<Kubelet> kubelet;
    };

    /// kube-proxy programming state for one (service, node) pair.
    struct ProxyAlias {
        bool open = false;
        sim::Simulation::PeriodicHandle poll;
    };

    /// One service name's record, hashed by name: the stored Service and
    /// Deployment objects (null while none is stored), which write hooks
    /// keep current, and kube-proxy's round-robin cursor for
    /// multi-endpoint forwarding, shared by the service's node aliases.
    /// Kept for the cluster's lifetime, so the cursor survives a removal
    /// and re-creation as before.
    struct ServiceRecord {
        const ServiceObj* svc = nullptr;
        const DeploymentObj* deployment = nullptr;
        std::size_t cursor = 0;
    };

    void reconcile_proxy(const std::string& svc_name);
    void open_alias(const std::string& svc_name, net::NodeId node,
                    std::uint16_t expose_port);
    void close_alias(const std::string& svc_name, net::NodeId node,
                     std::uint16_t expose_port);
    NodeAgents& agents_for(net::NodeId node);

    std::string name_;
    sim::Simulation& sim_;
    net::Topology& topo_;
    std::vector<net::NodeId> nodes_;
    net::EndpointDirectory& endpoints_;
    RegistryDirectory& registries_;
    K8sClusterConfig config_;
    ApiServer api_;
    ControllerManager controllers_;
    KubeScheduler scheduler_;
    std::vector<std::unique_ptr<NodeAgents>> agents_;
    sim::Logger log_;
    /// (service name, node id) -> alias state
    std::map<std::pair<std::string, std::uint32_t>, ProxyAlias> aliases_;
    /// Service name -> record; element addresses are stable.
    std::unordered_map<std::string, ServiceRecord> records_;
    StoreIndex<PodObj> pods_by_service_;  ///< by spec.name
    /// Count and summed requests of the non-terminating pods (bound or
    /// pending), kept by a pods write hook.
    std::size_t live_pods_ = 0;
    ResourceRequest live_used_;
    std::set<std::uint16_t> used_node_ports_;
    std::uint16_t next_node_port_ = 30000;
    mutable ResourceRequest peak_used_;  ///< high-water mark of pod requests
    std::uint64_t admissions_ = 0;
    std::uint64_t rejections_ = 0;

    std::uint16_t allocate_node_port(std::uint16_t preferred);
};

} // namespace tedge::orchestrator::k8s

// A single-host Docker "cluster" (the paper's lightweight alternative to
// Kubernetes). Create makes the containers (`docker create`); Scale Up
// starts them (`docker start`); the published host port opens as soon as the
// HTTP container's application is listening -- which is why Docker answers
// the first request in well under a second.
#pragma once

#include <memory>
#include <set>
#include <string>
#include <unordered_map>

#include "orchestrator/cluster.hpp"
#include "simcore/logging.hpp"
#include "simcore/simulation.hpp"
#include "simcore/symbol_table.hpp"

namespace tedge::orchestrator {

struct DockerClusterConfig {
    /// Docker Engine API call overhead (client library + dockerd).
    sim::SimTime api_latency = sim::milliseconds(15);
    /// Host CPU/mem budget; default unlimited (admits everything).
    ResourceCapacity capacity;
};

class DockerCluster final : public Cluster {
public:
    DockerCluster(std::string name, sim::Simulation& sim, net::Topology& topo,
                  net::NodeId node, net::EndpointDirectory& endpoints,
                  RegistryDirectory& registries, sim::Rng rng,
                  DockerClusterConfig config = {},
                  container::RuntimeCostModel runtime_costs = {},
                  container::PullerConfig puller_config = {});

    [[nodiscard]] const std::string& name() const override { return name_; }
    [[nodiscard]] net::NodeId location() const override { return node_; }

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

    [[nodiscard]] container::ImageStore& image_store() { return store_; }
    [[nodiscard]] container::ContainerRuntime& runtime() { return runtime_; }
    [[nodiscard]] const ResourceLedger& ledger() const { return ledger_; }

private:
    enum class SvcState { kCreated, kStarting, kRunning, kStopped };

    struct Service {
        ServiceSpec spec;
        SvcState state = SvcState::kCreated;
        std::vector<container::ContainerId> containers;
        sim::SimTime state_since;
        /// Host port published for the service. Defaults to the spec's
        /// exposed port but moves to a free port when several services would
        /// collide on one host -- the SDN layer rewrites the destination
        /// port anyway, so the concrete value is invisible to clients.
        std::uint16_t host_port = 0;
    };

    void with_api_latency(std::function<void()> fn);
    std::uint16_t allocate_host_port(std::uint16_t preferred);

    std::string name_;
    sim::Simulation& sim_;
    net::Topology& topo_;
    net::NodeId node_;
    RegistryDirectory& registries_;
    DockerClusterConfig config_;
    container::ImageStore store_;
    container::Puller puller_;
    container::ContainerRuntime runtime_;
    sim::Logger log_;
    ResourceLedger ledger_;  ///< reserved by starting/running services
    /// Hashed by name: the dispatcher asks it for every scheduling decision.
    std::unordered_map<std::string, Service, sim::StringHash, std::equal_to<>>
        services_;
    std::set<std::uint16_t> used_ports_;
    std::uint16_t next_port_ = 8000;
};

} // namespace tedge::orchestrator

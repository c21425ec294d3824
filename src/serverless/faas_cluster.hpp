// FaasCluster: a serverless edge cluster behind the standard Cluster
// interface, so the SDN controller can deploy the SAME annotated service
// definition either as containers (Docker/K8s) or as a WASM function --
// the side-by-side operation the paper names as future work (§VIII).
//
// Phase mapping (fig. 4): Pull = fetch the module from the registry;
// Create = register the function and bind its gateway port; Scale Up =
// pre-warm one instance (optional -- scale-from-zero also works, the first
// request then pays a few ms of cold start instead of a container's
// hundreds of ms).
#pragma once

#include <map>
#include <memory>
#include <set>
#include <string>

#include "container/image_store.hpp"
#include "container/puller.hpp"
#include "orchestrator/cluster.hpp"
#include "serverless/wasm_runtime.hpp"

namespace tedge::serverless {

struct FaasClusterConfig {
    sim::SimTime api_latency = sim::milliseconds(3);  ///< gateway control API
    WasmRuntimeCosts runtime;
    container::PullerConfig puller;
    /// Gateway host CPU/mem budget for warm instances; default unlimited.
    orchestrator::ResourceCapacity capacity;
};

class FaasCluster final : public orchestrator::Cluster {
public:
    FaasCluster(std::string name, sim::Simulation& sim, net::Topology& topo,
                net::NodeId node, net::EndpointDirectory& endpoints,
                orchestrator::RegistryDirectory& registries, sim::Rng rng,
                FaasClusterConfig config = {});

    [[nodiscard]] const std::string& name() const override { return name_; }
    [[nodiscard]] net::NodeId location() const override { return node_; }

    void ensure_image(const orchestrator::ServiceSpec& spec,
                      PullCallback done) override;
    [[nodiscard]] bool has_image(const orchestrator::ServiceSpec& spec) const override;
    void create_service(const orchestrator::ServiceSpec& spec,
                        BoolCallback done) override;
    [[nodiscard]] bool has_service(const std::string& name) const override;
    void scale_up(const std::string& name, BoolCallback done) override;
    void scale_down(const std::string& name, BoolCallback done) override;
    void remove_service(const std::string& name, BoolCallback done) override;
    void delete_image(const orchestrator::ServiceSpec& spec) override;
    void append_instances(const std::string& name,
                          std::vector<orchestrator::InstanceInfo>& out) const override;
    [[nodiscard]] std::size_t total_instances() const override;
    [[nodiscard]] orchestrator::ClusterUtilization utilization() const override;
    [[nodiscard]] orchestrator::AdmissionReason
    admits(const orchestrator::ServiceSpec& spec) const override;

    [[nodiscard]] WasmRuntime& runtime() { return runtime_; }
    [[nodiscard]] container::ImageStore& module_store() { return store_; }

private:
    std::uint16_t allocate_port(std::uint16_t preferred);

    std::string name_;
    sim::Simulation& sim_;
    net::Topology& topo_;
    net::NodeId node_;
    orchestrator::RegistryDirectory& registries_;
    FaasClusterConfig config_;
    container::ImageStore store_;
    container::Puller puller_;
    WasmRuntime runtime_;
    std::map<std::string, orchestrator::ServiceSpec> services_;
    std::map<std::string, std::uint16_t> gateway_ports_;
    orchestrator::ResourceLedger ledger_;  ///< reserved by warm functions
    std::set<std::string> warm_;  ///< functions holding a reservation
    std::set<std::uint16_t> used_ports_;
    std::uint16_t next_port_ = 9000;
};

} // namespace tedge::serverless

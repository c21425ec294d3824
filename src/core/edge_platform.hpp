// EdgePlatform: the top-level facade that assembles a complete transparent
// edge deployment -- simulation kernel, topology, ingress switch, TCP model,
// registries, edge clusters, the cloud fallback, the annotation pipeline,
// and the SDN controller. Examples and benches build their scenarios
// through this API.
#pragma once

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "container/app_profile.hpp"
#include "core/config.hpp"
#include "core/deployment.hpp"
#include "core/port_prober.hpp"
#include "net/tcp.hpp"
#include "orchestrator/docker_cluster.hpp"
#include "orchestrator/k8s/k8s_cluster.hpp"
#include "serverless/faas_cluster.hpp"
#include "sdn/annotator.hpp"
#include "sdn/controller.hpp"
#include "sdn/service_registry.hpp"
#include "sdn/session_plane.hpp"
#include "simcore/random.hpp"

namespace tedge::core {

struct EdgePlatformConfig {
    std::uint64_t seed = 42;
    net::OvsSwitchConfig ingress;
    net::TcpNetConfig tcp;
    PortProberConfig prober;
    sdn::AnnotatorConfig annotator;
};

class EdgePlatform {
public:
    /// Self-hosted: the platform owns its simulation kernel.
    explicit EdgePlatform(EdgePlatformConfig config = {});

    /// Hosted: build the platform on an external kernel -- a sim::Domain's
    /// simulation inside a ShardedSimulation, or any caller-owned kernel.
    /// `sim` must outlive the platform.
    explicit EdgePlatform(sim::Simulation& sim, EdgePlatformConfig config = {});

    // --- topology building ---------------------------------------------
    [[nodiscard]] sim::Simulation& simulation() { return *sim_; }
    [[nodiscard]] net::Topology& topology() { return topo_; }
    [[nodiscard]] net::NodeId ingress_node() const { return switch_node_; }
    [[nodiscard]] net::OvsSwitch& ingress() { return *switch_; }
    [[nodiscard]] net::TcpNet& network() { return *tcp_; }
    [[nodiscard]] net::EndpointDirectory& endpoints() { return endpoints_; }
    [[nodiscard]] sim::Rng& rng() { return rng_; }

    /// Add a secondary ingress switch (another gNB/cell) linked to the
    /// primary ingress over a backbone link. The controller attaches to it
    /// when started (or immediately if already running).
    net::OvsSwitch& add_ingress(const std::string& name,
                                sim::SimTime backbone_latency = sim::microseconds(200),
                                sim::DataRate rate = sim::gbit_per_sec(10));

    /// Add a client host linked to the ingress switch.
    net::NodeId add_client(const std::string& name, net::Ipv4 ip,
                           sim::SimTime link_latency = sim::microseconds(300),
                           sim::DataRate rate = sim::gbit_per_sec(1));

    /// Link an existing client to another ingress switch (overlapping
    /// cells) and/or hand it over: its next flows enter there.
    void connect_client_to_ingress(net::NodeId client, net::OvsSwitch& ingress,
                                   sim::SimTime link_latency = sim::microseconds(300),
                                   sim::DataRate rate = sim::gbit_per_sec(1));
    void handover_client(net::NodeId client, net::OvsSwitch& ingress);

    /// Schedule a handover as a platform event at absolute time `at` --
    /// mobility traces (workload::MobilityStream) drive the platform through
    /// this. The client must already be connected to `ingress` (overlapping
    /// cells: connect_client_to_ingress up front, handovers later).
    void schedule_handover(net::NodeId client, net::OvsSwitch& ingress,
                           sim::SimTime at);

    /// The session plane: source of truth for client attachments. Created
    /// with the platform; shared with the controller when one starts.
    [[nodiscard]] sdn::SessionPlane& sessions() { return *sessions_; }

    /// Add a server host linked to the ingress switch (edge cluster homes).
    net::NodeId add_edge_host(const std::string& name, net::Ipv4 ip,
                              std::uint32_t cores,
                              sim::SimTime link_latency = sim::microseconds(150),
                              sim::DataRate rate = sim::gbit_per_sec(10));

    /// Add the cloud node (higher latency). Registered services fall back
    /// here; their addresses become IP aliases of this node.
    net::NodeId add_cloud(const std::string& name = "cloud",
                          sim::SimTime link_latency = sim::milliseconds(18),
                          sim::DataRate rate = sim::gbit_per_sec(10));
    [[nodiscard]] net::NodeId cloud_node() const { return cloud_; }

    // --- registries & app catalog ---------------------------------------
    container::Registry& add_registry(const container::RegistryProfile& profile);
    [[nodiscard]] orchestrator::RegistryDirectory& registries() { return registry_dir_; }

    /// Teach the platform the behavioural profile of an image.
    void add_app_profile(const std::string& image, container::AppProfile profile);
    [[nodiscard]] const container::AppProfile*
    profile_for(const container::ImageRef& ref) const;

    // --- clusters ---------------------------------------------------------
    orchestrator::DockerCluster&
    add_docker_cluster(const std::string& name, net::NodeId node,
                       orchestrator::DockerClusterConfig config = {},
                       container::RuntimeCostModel runtime_costs = {},
                       container::PullerConfig puller = {});

    orchestrator::k8s::K8sCluster&
    add_k8s_cluster(const std::string& name, std::vector<net::NodeId> nodes,
                    orchestrator::k8s::K8sClusterConfig config = {});

    serverless::FaasCluster&
    add_faas_cluster(const std::string& name, net::NodeId node,
                     serverless::FaasClusterConfig config = {});

    [[nodiscard]] const std::vector<orchestrator::Cluster*>& clusters() const {
        return cluster_ptrs_;
    }
    [[nodiscard]] orchestrator::Cluster* cluster(const std::string& name) const;

    // --- services ---------------------------------------------------------
    /// Annotate + register a service definition; also provisions the cloud
    /// instance (alias IP + always-on endpoint) when a cloud node exists.
    const sdn::AnnotatedService& register_service(const net::ServiceAddress& address,
                                                  const std::string& yaml_text);

    [[nodiscard]] sdn::ServiceRegistry& service_registry() { return services_; }
    [[nodiscard]] const sdn::Annotator& annotator() const { return *annotator_; }

    // --- controller --------------------------------------------------------
    /// Create the controller on `controller_host` and attach it to the
    /// ingress switch. Must be called after clusters are added.
    sdn::Controller& start_controller(net::NodeId controller_host,
                                      sdn::ControllerConfig config = {});

    [[nodiscard]] sdn::Controller& controller() { return *controller_; }
    [[nodiscard]] DeploymentEngine& deployment_engine() { return *engine_; }
    [[nodiscard]] PortProber& prober() { return *prober_; }

    // --- convenience --------------------------------------------------------
    /// Issue an HTTP request from `client` to a registered cloud address.
    void http_request(net::NodeId client, const net::ServiceAddress& address,
                      sim::Bytes request_size, net::TcpNet::Done done);

private:
    void init();
    void provision_cloud_service(const sdn::AnnotatedService& service);

    EdgePlatformConfig config_;
    std::unique_ptr<sim::Simulation> owned_sim_;  ///< null when hosted
    sim::Simulation* sim_;
    sim::Rng rng_;
    net::Topology topo_;
    net::EndpointDirectory endpoints_;
    net::NodeId switch_node_;
    std::unique_ptr<net::OvsSwitch> switch_;
    std::vector<std::unique_ptr<net::OvsSwitch>> extra_switches_;
    std::unique_ptr<net::TcpNet> tcp_;
    /// Declared after tcp_ (the transport holds a resolver pointer into it)
    /// and before controller_ (which registers a handover callback).
    std::unique_ptr<sdn::SessionPlane> sessions_;
    net::NodeId cloud_;
    orchestrator::RegistryDirectory registry_dir_;
    std::vector<std::unique_ptr<container::Registry>> registries_;
    std::map<std::string, container::AppProfile> app_catalog_;
    std::vector<std::unique_ptr<orchestrator::Cluster>> clusters_;
    std::vector<orchestrator::Cluster*> cluster_ptrs_;
    std::unique_ptr<sdn::Annotator> annotator_;
    sdn::ServiceRegistry services_;
    std::unique_ptr<PortProber> prober_;
    std::unique_ptr<DeploymentEngine> engine_;
    std::unique_ptr<sdn::Controller> controller_;
};

} // namespace tedge::core

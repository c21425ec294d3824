// The SDN controller: ties the ingress switch, FlowMemory, Dispatcher,
// Global Scheduler, and DeploymentEngine together (paper §V). The concrete
// scheduler is chosen by name from the controller configuration and
// instantiated through the SchedulerRegistry ("dynamically loaded").
// The controller may also scale down edge services whose memorized flows
// have all gone idle.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "core/deployment.hpp"
#include "net/ovs_switch.hpp"
#include "sdn/dispatcher.hpp"
#include "sdn/flow_memory.hpp"
#include "sdn/scheduler.hpp"
#include "sdn/service_registry.hpp"
#include "sdn/session_plane.hpp"
#include "simcore/logging.hpp"

namespace tedge::sdn {

struct ControllerConfig {
    std::string scheduler = kProximityScheduler;
    yamlite::Node scheduler_params;
    DispatcherConfig dispatcher;
    FlowMemory::Config flow_memory;
    /// Scale idle services down when their last memorized flow expires.
    bool scale_down_idle = true;
    /// The session plane to read client attachments from. The platform wires
    /// its own; when null the controller owns a private one (implicit
    /// sessions only -- the legacy packet-driven location tracking).
    SessionPlane* session_plane = nullptr;
};

class Controller {
public:
    Controller(sim::Simulation& sim, net::Topology& topo, net::OvsSwitch& ingress,
               ServiceRegistry& registry, core::DeploymentEngine& engine,
               std::vector<orchestrator::Cluster*> clusters,
               ControllerConfig config = {});
    ~Controller();

    Controller(const Controller&) = delete;
    Controller& operator=(const Controller&) = delete;

    /// Attach to the primary switch (registers the packet-in handler).
    /// Idempotent.
    void start();

    /// Attach an additional ingress switch (multi-gNB deployments): its
    /// packet-ins are dispatched with the switch as flow-install target, and
    /// service-wide flow evictions reach it too.
    void attach(net::OvsSwitch& ingress);

    [[nodiscard]] Dispatcher& dispatcher() { return *dispatcher_; }
    [[nodiscard]] const Dispatcher& dispatcher() const { return *dispatcher_; }
    [[nodiscard]] SessionPlane& sessions() { return *sessions_; }
    [[nodiscard]] FlowMemory& flow_memory() { return flow_memory_; }
    [[nodiscard]] GlobalScheduler& scheduler() { return *scheduler_; }
    [[nodiscard]] const ControllerConfig& config() const { return config_; }

    [[nodiscard]] std::uint64_t idle_scale_downs() const { return idle_scale_downs_; }

private:
    void on_idle_service(const std::string& service, const std::string& cluster);

    sim::Simulation& sim_;
    net::Topology& topo_;
    net::OvsSwitch& ingress_;
    core::DeploymentEngine& engine_;
    std::vector<orchestrator::Cluster*> clusters_;
    ControllerConfig config_;
    FlowMemory flow_memory_;
    /// Owned fallback when no session plane was configured; sessions_ always
    /// points at the one in use. Declared before dispatcher_, which holds a
    /// reference into it.
    std::unique_ptr<SessionPlane> owned_sessions_;
    SessionPlane* sessions_ = nullptr;
    std::unique_ptr<GlobalScheduler> scheduler_;
    std::unique_ptr<Dispatcher> dispatcher_;
    sim::Logger log_;
    std::uint64_t idle_scale_downs_ = 0;
    bool started_ = false;
};

} // namespace tedge::sdn

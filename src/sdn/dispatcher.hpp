// The Dispatcher (paper fig. 6/7): feeds the Global Scheduler with the
// current system state, checks and triggers deployment of edge services,
// tracks the clients' locations, and answers packet-ins:
//
//   packet-in -> FlowMemory hit? -> install flow, release packet
//             -> registered service? no -> release toward the cloud
//             -> gather instances -> Scheduler {FAST, BEST}
//             -> BEST non-empty -> deploy there in the background
//             -> FAST instance ready -> redirect now
//             -> FAST needs deployment -> deploy, hold the packet, probe the
//                port, then redirect (on-demand deployment WITH waiting)
//             -> FAST empty -> release toward the cloud
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "core/deployment.hpp"
#include "net/ovs_switch.hpp"
#include "sdn/continuity.hpp"
#include "sdn/flow_memory.hpp"
#include "sdn/scheduler.hpp"
#include "sdn/service_registry.hpp"
#include "sdn/session_plane.hpp"
#include "simcore/logging.hpp"
#include "simcore/tracer.hpp"

namespace tedge::sdn {

struct DispatcherConfig {
    std::uint16_t flow_priority = 200;
    /// Idle timeout for switch entries; kept low because FlowMemory can
    /// restore flows cheaply (paper §V).
    sim::SimTime switch_idle_timeout = sim::seconds(10);
    /// Install a redirect-to-cloud entry when no edge location exists, so
    /// follow-up packets do not hit the controller again.
    bool install_cloud_flows = true;
    /// What to do with a client's existing flows on handover (DESIGN §11).
    ContinuityConfig continuity;
};

struct DispatcherStats {
    std::uint64_t packet_ins = 0;
    std::uint64_t memory_hits = 0;
    std::uint64_t unregistered = 0;
    std::uint64_t redirected_ready = 0;   ///< served by an existing instance
    std::uint64_t deployed_waiting = 0;   ///< with-waiting deployments
    std::uint64_t deployed_background = 0;///< without-waiting (BEST) deployments
    std::uint64_t cloud_fallbacks = 0;
    std::uint64_t failures = 0;
    std::uint64_t deploy_retries = 0;     ///< alternate-cluster retries issued
    std::uint64_t retry_successes = 0;    ///< retries that served the request
    std::uint64_t handovers = 0;          ///< session re-homes processed
    std::uint64_t resteers = 0;           ///< flows kept on their old instance
    std::uint64_t migrations = 0;         ///< migrate-and-warm decisions taken
    std::uint64_t migrations_completed = 0; ///< cut-overs executed
    std::uint64_t migration_failures = 0; ///< warm-up deployments that failed
    std::uint64_t stale_migrations = 0;   ///< completions dropped: client re-homed again
};

class Dispatcher {
public:
    Dispatcher(sim::Simulation& sim, net::Topology& topo, net::OvsSwitch& ingress,
               ServiceRegistry& registry, FlowMemory& memory,
               core::DeploymentEngine& engine, GlobalScheduler& scheduler,
               SessionPlane& sessions,
               std::vector<orchestrator::Cluster*> clusters,
               DispatcherConfig config = {});

    /// Handle a packet-in from the primary ingress switch.
    void handle_packet_in(const net::PacketIn& event);

    /// Handle a packet-in from a specific switch (multi-gNB deployments).
    void handle_packet_in(net::OvsSwitch& source, const net::PacketIn& event);

    /// Register an additional ingress switch so service-wide flow eviction
    /// reaches it. The primary switch is registered automatically.
    void add_switch(net::OvsSwitch& ingress);

    /// Called when a background (BEST) deployment became ready: invalidate
    /// flows of the service (on every attached switch) so new requests
    /// re-dispatch to the new optimal instance.
    void on_best_ready(const orchestrator::ServiceSpec& spec);

    /// An instance endpoint closed (its pod or container stopped): delete,
    /// on every attached switch, the entries steering to it, so the next
    /// packet re-dispatches instead of being refused.
    void on_endpoint_closed(net::NodeId node, std::uint16_t port);

    /// A client re-homed (SessionPlane handover callback): sweep its stale
    /// flows off the old cell's switch and run the continuity policy over
    /// each of its memorized flows -- re-steer or migrate-and-warm.
    void on_handover(const UeSession& session, net::NodeId old_ingress);

    /// Replace the continuity policy (tests / custom strategies). The default
    /// is built from DispatcherConfig::continuity by name.
    void set_continuity_policy(std::unique_ptr<ContinuityPolicy> policy);

    /// Current attachment point of a client -- answered by the session plane
    /// (the paper's location tracking, now handover-aware: updated by the
    /// platform's handover event, not by the next packet).
    [[nodiscard]] std::optional<net::NodeId> client_location(net::Ipv4 client) const;

    [[nodiscard]] const DispatcherStats& stats() const { return stats_; }
    [[nodiscard]] const std::vector<orchestrator::Cluster*>& clusters() const {
        return clusters_;
    }

private:
    /// The packet-in decision body; `pin_span` is the enclosing trace span.
    void dispatch(net::OvsSwitch& source, const net::PacketIn& event,
                  sim::SpanId pin_span);
    void install_and_release(net::OvsSwitch& source, const net::PacketIn& event,
                             const orchestrator::ServiceSpec& spec,
                             const orchestrator::InstanceInfo& instance,
                             const std::string& cluster_name);
    void release_to_cloud(net::OvsSwitch& source, const net::PacketIn& event,
                          bool install_flow);
    /// One deploy-and-wait failed: re-ask the scheduler with the failed
    /// cluster excluded and try the next-best candidate once before the
    /// cloud fallback.
    void retry_dispatch(net::OvsSwitch& source, const net::PacketIn& event,
                        const orchestrator::ServiceSpec& spec,
                        const std::string& failed_cluster, sim::SpanId pin_span);
    /// `client` is the node proximity is judged from: the packet's ingress on
    /// the dispatch path, the *new* cell on the handover path (the client's
    /// own node still carries links to previously-visited cells, which would
    /// distort the decision).
    ScheduleContext build_context(net::NodeId client,
                                  const orchestrator::ServiceSpec& spec,
                                  const std::string* exclude_cluster = nullptr) const;
    /// Continuity decision for one (client, flow) pair after a handover.
    void decide_continuity(const UeSession& session, net::NodeId old_ingress,
                           const MemorizedFlow& flow);
    static std::uint64_t cookie_for(const std::string& service);

    sim::Simulation& sim_;
    net::Topology& topo_;
    net::OvsSwitch& ingress_;
    std::vector<net::OvsSwitch*> switches_;  ///< all attached ingresses
    ServiceRegistry& registry_;
    FlowMemory& memory_;
    core::DeploymentEngine& engine_;
    GlobalScheduler& scheduler_;
    SessionPlane& sessions_;
    std::vector<orchestrator::Cluster*> clusters_;
    DispatcherConfig config_;
    DispatcherStats stats_;
    sim::Logger log_;
    std::unique_ptr<ContinuityPolicy> continuity_;
};

} // namespace tedge::sdn

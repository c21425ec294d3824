#include "sdn/controller.hpp"

namespace tedge::sdn {
namespace {

/// The dispatcher's handover path walks flows by client; keep that O(client's
/// flows). The index has no observable artifacts, so scenarios without
/// mobility are byte-identical either way.
ControllerConfig with_client_index(ControllerConfig config) {
    config.flow_memory.track_clients = true;
    return config;
}

} // namespace

Controller::Controller(sim::Simulation& sim, net::Topology& topo,
                       net::OvsSwitch& ingress, ServiceRegistry& registry,
                       core::DeploymentEngine& engine,
                       std::vector<orchestrator::Cluster*> clusters,
                       ControllerConfig config)
    : sim_(sim), topo_(topo), ingress_(ingress), engine_(engine),
      clusters_(clusters), config_(with_client_index(std::move(config))),
      flow_memory_(sim, config_.flow_memory),
      scheduler_(SchedulerRegistry::instance().create(config_.scheduler,
                                                      config_.scheduler_params)),
      log_(sim, "controller") {
    if (config_.session_plane != nullptr) {
        sessions_ = config_.session_plane;
    } else {
        owned_sessions_ = std::make_unique<SessionPlane>(sim);
        sessions_ = owned_sessions_.get();
    }
    dispatcher_ = std::make_unique<Dispatcher>(sim, topo, ingress, registry,
                                               flow_memory_, engine, *scheduler_,
                                               *sessions_, std::move(clusters),
                                               config_.dispatcher);
    sessions_->on_handover(
        [this](const UeSession& session, net::NodeId old_ingress) {
            dispatcher_->on_handover(session, old_ingress);
        });
    if (config_.scale_down_idle) {
        flow_memory_.set_idle_service_callback(
            [this](const std::string& service, const std::string& cluster) {
                on_idle_service(service, cluster);
            });
    }
    // A closed instance port must not stay a switch target: a client whose
    // entry outlived its pod would be refused instead of re-dispatched.
    topo_.set_port_closed_callback(
        [this](net::NodeId host, std::uint16_t port, net::Proto) {
            dispatcher_->on_endpoint_closed(host, port);
        });
}

Controller::~Controller() { topo_.set_port_closed_callback(nullptr); }

void Controller::start() {
    if (started_) return;
    started_ = true;
    ingress_.set_controller([this](const net::PacketIn& event) {
        dispatcher_->handle_packet_in(event);
    });
}

void Controller::attach(net::OvsSwitch& ingress) {
    dispatcher_->add_switch(ingress);
    ingress.set_controller([this, &ingress](const net::PacketIn& event) {
        dispatcher_->handle_packet_in(ingress, event);
    });
}

void Controller::on_idle_service(const std::string& service,
                                 const std::string& cluster) {
    for (auto* c : clusters_) {
        if (c->name() != cluster) continue;
        if (c->instances(service).empty()) return; // nothing running
        ++idle_scale_downs_;
        log_.info([&] { return "scaling down idle service " + service + " on " + cluster; });
        engine_.scale_down(*c, service, [](bool) {});
        return;
    }
}

} // namespace tedge::sdn

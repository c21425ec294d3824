#include "serverless/faas_cluster.hpp"

#include <stdexcept>

#include "simcore/metrics_registry.hpp"

namespace tedge::serverless {

FaasCluster::FaasCluster(std::string name, sim::Simulation& sim,
                         net::Topology& topo, net::NodeId node,
                         net::EndpointDirectory& endpoints,
                         orchestrator::RegistryDirectory& registries, sim::Rng rng,
                         FaasClusterConfig config)
    : name_(std::move(name)), sim_(sim), topo_(topo), node_(node),
      registries_(registries), config_(config),
      puller_(sim, store_, config.puller),
      runtime_(sim, topo, node, endpoints, rng, config.runtime),
      ledger_(config.capacity) {}

std::uint16_t FaasCluster::allocate_port(std::uint16_t preferred) {
    if (preferred != 0 && used_ports_.insert(preferred).second) return preferred;
    while (used_ports_.contains(next_port_)) ++next_port_;
    const std::uint16_t port = next_port_++;
    used_ports_.insert(port);
    return port;
}

void FaasCluster::ensure_image(const orchestrator::ServiceSpec& spec,
                               PullCallback done) {
    if (spec.containers.empty()) {
        sim_.schedule(sim::SimTime::zero(),
                      [done = std::move(done)] { done(false, {}); });
        return;
    }
    // Serverless deployments use the FIRST container's image as the module
    // (multi-container pods do not map onto functions).
    const auto module = spec.containers.front().image;
    auto* registry = registries_.resolve(module);
    if (registry == nullptr) {
        sim_.schedule(sim::SimTime::zero(),
                      [done = std::move(done)] { done(false, {}); });
        return;
    }
    sim_.schedule(config_.api_latency, [this, module, registry,
                                        done = std::move(done)] {
        puller_.pull(module, *registry, std::move(done));
    });
}

bool FaasCluster::has_image(const orchestrator::ServiceSpec& spec) const {
    return !spec.containers.empty() &&
           store_.has_image(spec.containers.front().image);
}

void FaasCluster::create_service(const orchestrator::ServiceSpec& spec,
                                 BoolCallback done) {
    if (services_.contains(spec.name)) {
        sim_.schedule(config_.api_latency, [done = std::move(done)] { done(true); });
        return;
    }
    if (!spec.valid() || !has_image(spec)) {
        sim_.schedule(config_.api_latency, [done = std::move(done)] { done(false); });
        return;
    }
    services_[spec.name] = spec;
    const std::uint16_t gateway = allocate_port(spec.expose_port);
    gateway_ports_[spec.name] = gateway;

    FunctionSpec function;
    function.name = spec.name;
    function.module = spec.containers.front().image;
    function.app = spec.containers.front().app;
    function.port = spec.target_port;
    sim_.schedule(config_.api_latency, [this, function, gateway,
                                        done = std::move(done)] {
        runtime_.deploy(function, gateway, [done] { done(true); });
    });
}

bool FaasCluster::has_service(const std::string& name) const {
    return services_.contains(name);
}

void FaasCluster::scale_up(const std::string& name, BoolCallback done) {
    const auto it = services_.find(name);
    if (it == services_.end()) {
        sim_.schedule(config_.api_latency, [done = std::move(done)] { done(false); });
        return;
    }
    // A warm instance holds its request until cool-down. Rejections are
    // typed, mirroring the container clusters' admission control.
    if (!warm_.contains(name)) {
        if (const auto reason = ledger_.admit(it->second.resource_request());
            reason != orchestrator::AdmissionReason::kAdmitted) {
            if (auto* m = sim_.metrics()) {
                m->counter("faas." + name_ + ".rejections").inc();
            }
            sim_.schedule(config_.api_latency,
                          [done = std::move(done)] { done(false); });
            return;
        }
        warm_.insert(name);
    }
    sim_.schedule(config_.api_latency, [this, name, done = std::move(done)] {
        runtime_.prewarm(name, 1, [done] { done(true); });
    });
}

void FaasCluster::scale_down(const std::string& name, BoolCallback done) {
    // Serverless scales itself back to zero via keep-alive expiry; an
    // explicit scale-down just drops the warm pool immediately.
    const bool known = services_.contains(name);
    if (known && warm_.erase(name) != 0) {
        ledger_.release(services_.at(name).resource_request());
    }
    sim_.schedule(config_.api_latency, [this, name, known, done = std::move(done)] {
        if (known) runtime_.cool_down(name);
        done(known);
    });
}

void FaasCluster::remove_service(const std::string& name, BoolCallback done) {
    const auto it = services_.find(name);
    if (it == services_.end()) {
        sim_.schedule(config_.api_latency, [done = std::move(done)] { done(false); });
        return;
    }
    if (warm_.erase(name) != 0) {
        ledger_.release(it->second.resource_request());
    }
    services_.erase(it);
    const auto port = gateway_ports_.find(name);
    if (port != gateway_ports_.end()) {
        used_ports_.erase(port->second);
        gateway_ports_.erase(port);
    }
    sim_.schedule(config_.api_latency, [this, name, done = std::move(done)] {
        runtime_.remove(name, [done] { done(true); });
    });
}

void FaasCluster::delete_image(const orchestrator::ServiceSpec& spec) {
    if (spec.containers.empty()) return;
    store_.remove_image(spec.containers.front().image);
    store_.gc();
}

void FaasCluster::append_instances(const std::string& name,
                                   std::vector<orchestrator::InstanceInfo>& out) const {
    const auto it = gateway_ports_.find(name);
    if (it == gateway_ports_.end() || !runtime_.deployed(name)) return;
    orchestrator::InstanceInfo info;
    info.node = node_;
    info.port = it->second;
    info.ready = topo_.port_open(node_, it->second);
    out.push_back(info);
}

std::size_t FaasCluster::total_instances() const {
    return services_.size();
}

orchestrator::ClusterUtilization FaasCluster::utilization() const {
    orchestrator::ClusterUtilization u;
    u.capacity = ledger_.capacity();
    u.used = ledger_.used();
    u.peak_used = ledger_.peak();
    u.admissions = ledger_.admissions();
    u.rejections = ledger_.rejections();
    return u;
}

orchestrator::AdmissionReason
FaasCluster::admits(const orchestrator::ServiceSpec& spec) const {
    if (!ledger_.limited() || warm_.contains(spec.name)) {
        return orchestrator::AdmissionReason::kAdmitted;
    }
    return ledger_.check(spec.resource_request());
}

} // namespace tedge::serverless

#include "orchestrator/docker_cluster.hpp"

#include <algorithm>
#include <set>

#include "simcore/metrics_registry.hpp"

namespace tedge::orchestrator {

DockerCluster::DockerCluster(std::string name, sim::Simulation& sim,
                             net::Topology& topo, net::NodeId node,
                             net::EndpointDirectory& endpoints,
                             RegistryDirectory& registries, sim::Rng rng,
                             DockerClusterConfig config,
                             container::RuntimeCostModel runtime_costs,
                             container::PullerConfig puller_config)
    : name_(std::move(name)), sim_(sim), topo_(topo), node_(node),
      registries_(registries), config_(config), store_(),
      puller_(sim, store_, puller_config),
      runtime_(sim, topo, node, endpoints, rng, runtime_costs),
      log_(sim, "docker/" + name_), ledger_(config.capacity) {}

void DockerCluster::with_api_latency(std::function<void()> fn) {
    sim_.schedule(config_.api_latency, std::move(fn));
}

void DockerCluster::ensure_image(const ServiceSpec& spec, PullCallback done) {
    // Distinct images only; a multi-container service may reuse one image.
    std::set<std::string> seen;
    std::vector<container::ImageRef> images;
    for (const auto& c : spec.containers) {
        if (seen.insert(c.image.full()).second) images.push_back(c.image);
    }

    struct Progress {
        std::size_t remaining;
        bool ok = true;
        container::PullTiming total;
        PullCallback done;
    };
    auto progress = std::make_shared<Progress>();
    progress->remaining = images.size();
    progress->total.started = sim_.now();
    progress->done = std::move(done);

    with_api_latency([this, images, progress] {
        for (const auto& ref : images) {
            auto* registry = registries_.resolve(ref);
            if (registry == nullptr) {
                log_.warn("no registry for " + ref.full());
                progress->ok = false;
                if (--progress->remaining == 0) {
                    progress->total.finished = sim_.now();
                    progress->done(false, progress->total);
                }
                continue;
            }
            puller_.pull(ref, *registry,
                         [progress, this](bool ok, const container::PullTiming& t) {
                progress->ok = progress->ok && ok;
                progress->total.bytes_downloaded += t.bytes_downloaded;
                progress->total.layers_downloaded += t.layers_downloaded;
                progress->total.layers_cached += t.layers_cached;
                progress->total.layers_shared += t.layers_shared;
                if (--progress->remaining == 0) {
                    progress->total.finished = sim_.now();
                    progress->done(progress->ok, progress->total);
                }
            });
        }
    });
}

bool DockerCluster::has_image(const ServiceSpec& spec) const {
    return std::all_of(spec.containers.begin(), spec.containers.end(),
                       [this](const ContainerTemplate& c) {
                           return store_.has_image(c.image);
                       });
}

void DockerCluster::create_service(const ServiceSpec& spec, BoolCallback done) {
    if (services_.contains(spec.name)) {
        with_api_latency([done = std::move(done)] { done(true); });
        return;
    }
    if (!spec.valid() || !has_image(spec)) {
        // docker create fails when the image is absent locally (we never
        // implicitly pull here; the Pull phase is explicit).
        with_api_latency([done = std::move(done)] { done(false); });
        return;
    }
    if (ledger_.limited()) {
        // Reject a service that can never start: its per-instance request
        // exceeds the host's *total* budget. Transient pressure is not
        // checked here -- resources are only reserved at Scale Up.
        const auto request = spec.resource_request();
        const ResourceLedger empty_host(ledger_.capacity());
        if (const auto reason = empty_host.check(request);
            reason != AdmissionReason::kAdmitted) {
            log_.warn("create " + spec.name + " rejected: " + to_string(reason));
            if (auto* m = sim_.metrics()) {
                m->counter("docker." + name_ + ".rejections").inc();
            }
            with_api_latency([done = std::move(done)] { done(false); });
            return;
        }
    }
    auto& svc = services_[spec.name];
    svc.spec = spec;
    svc.state = SvcState::kCreated;
    svc.state_since = sim_.now();
    svc.host_port = allocate_host_port(spec.expose_port);

    auto remaining = std::make_shared<std::size_t>(spec.containers.size());
    auto cb = std::make_shared<BoolCallback>(std::move(done));
    with_api_latency([this, spec, remaining, cb] {
        for (const auto& tmpl : spec.containers) {
            container::ContainerConfig config;
            config.name = spec.name + "." + tmpl.name;
            config.image = tmpl.image;
            config.app = tmpl.app;
            config.volumes = tmpl.volumes;
            config.env = tmpl.env;
            config.labels = spec.labels;
            config.labels["edge.service"] = spec.name;
            runtime_.create(std::move(config),
                            [this, name = spec.name, remaining, cb](container::ContainerId id) {
                auto it = services_.find(name);
                if (it != services_.end()) it->second.containers.push_back(id);
                if (--*remaining == 0) (*cb)(true);
            });
        }
    });
}

bool DockerCluster::has_service(const std::string& name) const {
    return services_.contains(name);
}

void DockerCluster::scale_up(const std::string& name, BoolCallback done) {
    const auto it = services_.find(name);
    if (it == services_.end()) {
        with_api_latency([done = std::move(done)] { done(false); });
        return;
    }
    auto& svc = it->second;
    if (svc.state == SvcState::kRunning || svc.state == SvcState::kStarting) {
        with_api_latency([done = std::move(done)] { done(true); });
        return;
    }
    // Admission control: a starting instance reserves its request until
    // Scale Down releases it. Rejections are typed and surface as metrics
    // so schedulers and benches can see *why* a host refused work.
    if (const auto reason = ledger_.admit(svc.spec.resource_request());
        reason != AdmissionReason::kAdmitted) {
        log_.warn("scale up " + name + " rejected: " + to_string(reason));
        if (auto* m = sim_.metrics()) {
            m->counter("docker." + name_ + ".rejections").inc();
            m->counter(std::string("docker.rejected.") + to_string(reason)).inc();
        }
        with_api_latency([done = std::move(done)] { done(false); });
        return;
    }
    svc.state = SvcState::kStarting;
    svc.state_since = sim_.now();

    auto remaining = std::make_shared<std::size_t>(svc.containers.size());
    auto cb = std::make_shared<BoolCallback>(std::move(done));
    with_api_latency([this, name, remaining, cb] {
        auto& svc = services_.at(name);
        for (std::size_t i = 0; i < svc.containers.size(); ++i) {
            const auto& tmpl = svc.spec.containers[i];
            // Only the container serving the target port publishes the
            // service's host port (-p host:target).
            const std::uint16_t host_port =
                (tmpl.container_port != 0 && tmpl.container_port == svc.spec.target_port)
                    ? svc.host_port
                    : 0;
            runtime_.start(svc.containers[i], host_port, [this, name, remaining, cb] {
                if (--*remaining == 0) {
                    auto it2 = services_.find(name);
                    if (it2 != services_.end()) {
                        it2->second.state = SvcState::kRunning;
                        it2->second.state_since = sim_.now();
                    }
                    (*cb)(true);
                }
            });
        }
    });
}

void DockerCluster::scale_down(const std::string& name, BoolCallback done) {
    const auto it = services_.find(name);
    if (it == services_.end() || it->second.state == SvcState::kStopped ||
        it->second.state == SvcState::kCreated) {
        const bool exists = it != services_.end();
        with_api_latency([done = std::move(done), exists] { done(exists); });
        return;
    }
    auto& svc = it->second;
    svc.state = SvcState::kStopped;
    svc.state_since = sim_.now();
    ledger_.release(svc.spec.resource_request());
    auto remaining = std::make_shared<std::size_t>(svc.containers.size());
    auto cb = std::make_shared<BoolCallback>(std::move(done));
    with_api_latency([this, name, remaining, cb] {
        for (const auto id : services_.at(name).containers) {
            runtime_.stop(id, [remaining, cb] {
                if (--*remaining == 0) (*cb)(true);
            });
        }
    });
}

void DockerCluster::remove_service(const std::string& name, BoolCallback done) {
    const auto it = services_.find(name);
    if (it == services_.end()) {
        with_api_latency([done = std::move(done)] { done(false); });
        return;
    }
    const bool needs_stop = it->second.state == SvcState::kRunning ||
                            it->second.state == SvcState::kStarting;
    auto finish = [this, name, done = std::move(done)](bool /*ok*/) {
        auto& svc = services_.at(name);
        auto remaining = std::make_shared<std::size_t>(svc.containers.size());
        auto cb = std::make_shared<BoolCallback>(std::move(done));
        if (svc.containers.empty()) {
            used_ports_.erase(svc.host_port);
            services_.erase(name);
            with_api_latency([cb] { (*cb)(true); });
            return;
        }
        for (const auto id : svc.containers) {
            runtime_.remove(id, [this, name, remaining, cb] {
                if (--*remaining == 0) {
                    used_ports_.erase(services_.at(name).host_port);
                    services_.erase(name);
                    (*cb)(true);
                }
            });
        }
    };
    if (needs_stop) {
        scale_down(name, finish);
    } else {
        finish(true);
    }
}

void DockerCluster::delete_image(const ServiceSpec& spec) {
    for (const auto& c : spec.containers) store_.remove_image(c.image);
    store_.gc();
}

void DockerCluster::append_instances(const std::string& name,
                                     std::vector<InstanceInfo>& out) const {
    const auto it = services_.find(name);
    if (it == services_.end()) return;
    const auto& svc = it->second;
    if (svc.state != SvcState::kRunning && svc.state != SvcState::kStarting) return;
    InstanceInfo info;
    info.node = node_;
    info.port = svc.host_port;
    info.ready = topo_.port_open(node_, svc.host_port);
    info.since = svc.state_since;
    out.push_back(info);
}

std::uint16_t DockerCluster::allocate_host_port(std::uint16_t preferred) {
    if (preferred != 0 && used_ports_.insert(preferred).second) return preferred;
    while (used_ports_.contains(next_port_)) ++next_port_;
    const std::uint16_t port = next_port_++;
    used_ports_.insert(port);
    return port;
}

ClusterUtilization DockerCluster::utilization() const {
    ClusterUtilization u;
    u.capacity = ledger_.capacity();
    u.used = ledger_.used();
    u.peak_used = ledger_.peak();
    u.admissions = ledger_.admissions();
    u.rejections = ledger_.rejections();
    return u;
}

AdmissionReason DockerCluster::admits(const ServiceSpec& spec) const {
    if (!ledger_.limited()) return AdmissionReason::kAdmitted;
    const auto it = services_.find(spec.name);
    if (it != services_.end() && (it->second.state == SvcState::kRunning ||
                                  it->second.state == SvcState::kStarting)) {
        // Already reserved; a repeated Scale Up is a no-op.
        return AdmissionReason::kAdmitted;
    }
    return ledger_.check(spec.resource_request());
}

std::size_t DockerCluster::total_instances() const {
    std::size_t count = 0;
    for (const auto& [name, svc] : services_) {
        if (svc.state == SvcState::kRunning || svc.state == SvcState::kStarting) {
            ++count;
        }
    }
    return count;
}

} // namespace tedge::orchestrator

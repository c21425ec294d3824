// The cluster abstraction the SDN controller deploys to.
//
// The paper's deployment pipeline is cluster-type agnostic: the same service
// definition drives both a Docker host and a Kubernetes cluster, through the
// three phases Pull / Create / Scale Up (fig. 4), plus Scale Down / Remove /
// Delete for teardown. Each edge cluster implements this interface.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "container/app_profile.hpp"
#include "container/image.hpp"
#include "container/puller.hpp"
#include "container/registry.hpp"
#include "container/runtime.hpp"
#include "net/address.hpp"
#include "net/packet.hpp"
#include "orchestrator/resources.hpp"

namespace tedge::orchestrator {

/// One container within a service (a Kubernetes pod member or a member of a
/// Docker multi-container group).
struct ContainerTemplate {
    std::string name;
    container::ImageRef image;
    const container::AppProfile* app = nullptr;
    std::uint16_t container_port = 0;  ///< port the app listens on (0 = none)
    std::vector<container::VolumeMount> volumes;
    std::map<std::string, std::string> env;
    ResourceRequest resources;  ///< requested CPU/mem (zero = request nothing)
};

/// A fully-annotated edge service definition (the output of the Annotator).
struct ServiceSpec {
    std::string name;                    ///< unique worldwide service name
    net::ServiceAddress cloud_address;   ///< the registered (perceived) address
    std::uint16_t expose_port = 0;       ///< port of the generated Service
    std::uint16_t target_port = 0;       ///< container port traffic goes to
    std::vector<ContainerTemplate> containers;
    std::map<std::string, std::string> labels;  ///< includes "edge.service"
    int replicas = 0;                    ///< initial replicas ("scale to zero")
    std::string scheduler_name;          ///< Local Scheduler, may be empty

    [[nodiscard]] bool valid() const {
        return !name.empty() && !containers.empty() && expose_port != 0 &&
               target_port != 0;
    }

    /// Resources one instance of this service reserves: the sum of its
    /// containers' requests (a pod is scheduled as a unit).
    [[nodiscard]] ResourceRequest resource_request() const {
        ResourceRequest total;
        for (const auto& c : containers) total += c.resources;
        return total;
    }
};

/// A running (or starting) service instance inside a cluster.
struct InstanceInfo {
    net::NodeId node;
    std::uint16_t port = 0;   ///< where the instance accepts traffic
    bool ready = false;       ///< accepting connections end to end
    sim::SimTime since;       ///< when the instance reached its current state
};

/// Registry lookup shared by all clusters: which Registry serves a given
/// registry host (plus an optional pull-through mirror override).
class RegistryDirectory {
public:
    void add(container::Registry& registry) { by_host_[registry.host()] = &registry; }

    /// Route all pulls to `mirror` regardless of image registry host (models
    /// the paper's private in-network registry experiment).
    void set_mirror(container::Registry* mirror) { mirror_ = mirror; }

    [[nodiscard]] container::Registry* resolve(const container::ImageRef& ref) const {
        if (mirror_ != nullptr) return mirror_;
        const auto it = by_host_.find(ref.registry);
        return it == by_host_.end() ? nullptr : it->second;
    }

private:
    std::map<std::string, container::Registry*> by_host_;
    container::Registry* mirror_ = nullptr;
};

class Cluster {
public:
    using BoolCallback = std::function<void(bool ok)>;
    using PullCallback = std::function<void(bool ok, const container::PullTiming&)>;

    virtual ~Cluster() = default;

    [[nodiscard]] virtual const std::string& name() const = 0;

    /// Representative network location of the cluster (its ingress node);
    /// schedulers use this for proximity decisions.
    [[nodiscard]] virtual net::NodeId location() const = 0;

    // --- Pull phase ------------------------------------------------------
    virtual void ensure_image(const ServiceSpec& spec, PullCallback done) = 0;
    [[nodiscard]] virtual bool has_image(const ServiceSpec& spec) const = 0;

    // --- Create phase ----------------------------------------------------
    virtual void create_service(const ServiceSpec& spec, BoolCallback done) = 0;
    [[nodiscard]] virtual bool has_service(const std::string& name) const = 0;

    // --- Scale Up / Scale Down ------------------------------------------
    virtual void scale_up(const std::string& name, BoolCallback done) = 0;
    virtual void scale_down(const std::string& name, BoolCallback done) = 0;

    // --- Remove / Delete --------------------------------------------------
    virtual void remove_service(const std::string& name, BoolCallback done) = 0;
    virtual void delete_image(const ServiceSpec& spec) = 0;

    /// Append the current instances (running or starting) of a service to
    /// `out`. The dispatcher fills its reused scheduling context this way,
    /// so a warm decision allocates nothing.
    virtual void append_instances(const std::string& name,
                                  std::vector<InstanceInfo>& out) const = 0;

    /// Current instances (running or starting) of a service.
    [[nodiscard]] std::vector<InstanceInfo> instances(const std::string& name) const {
        std::vector<InstanceInfo> out;
        append_instances(name, out);
        return out;
    }

    /// Total service instances currently placed on the cluster (running or
    /// starting, across all services) -- the load signal schedulers use.
    [[nodiscard]] virtual std::size_t total_instances() const = 0;

    // --- Resource model (DESIGN §10) --------------------------------------
    // Default: unlimited. Clusters without a configured capacity admit
    // everything and report a zero (unlimited) utilization snapshot, so
    // existing scenarios are unaffected.

    /// Aggregate capacity/usage snapshot for pressure-aware schedulers.
    [[nodiscard]] virtual ClusterUtilization utilization() const { return {}; }

    /// Would one more instance of `spec` fit right now? Used by the
    /// DeploymentEngine as a pre-flight check and by schedulers to skip
    /// full clusters before committing to a placement.
    [[nodiscard]] virtual AdmissionReason admits(const ServiceSpec& spec) const {
        (void)spec;
        return AdmissionReason::kAdmitted;
    }

    /// Instances accepting traffic right now.
    [[nodiscard]] std::vector<InstanceInfo>
    ready_instances(const std::string& name) const {
        std::vector<InstanceInfo> out;
        for (auto& i : instances(name)) {
            if (i.ready) out.push_back(i);
        }
        return out;
    }
};

} // namespace tedge::orchestrator

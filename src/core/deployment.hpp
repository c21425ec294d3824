// DeploymentEngine: executes the paper's three-phase deployment lifecycle
// (fig. 4) against any Cluster and records per-phase timings -- the data
// behind the paper's figs. 11-15.
//
//   Pull      -- fetch container images unless cached,
//   Create    -- create containers (Docker) / Deployment+Service with zero
//                replicas (Kubernetes),
//   Scale Up  -- start the container / increment replicas,
//   WaitReady -- controller-side port probing until the service accepts.
//
// Concurrent ensure() calls for the same (cluster, service) coalesce into
// one deployment; every caller gets the callback when the shared work ends.
#pragma once

#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/port_prober.hpp"
#include "orchestrator/cluster.hpp"
#include "simcore/logging.hpp"
#include "simcore/simulation.hpp"

namespace tedge::core {

struct PhaseTimings {
    sim::SimTime pull;
    sim::SimTime create;
    sim::SimTime scale_up;
    sim::SimTime wait_ready;
    bool pulled = false;    ///< the Pull phase actually ran (cache miss)
    bool created = false;   ///< the Create phase actually ran
    bool scaled = false;    ///< the Scale Up phase actually ran
};

struct DeploymentRecord {
    std::string service;
    std::string cluster;
    sim::SimTime started;
    sim::SimTime finished;
    PhaseTimings phases;
    bool ok = false;
    /// Typed admission outcome; non-kAdmitted means the deployment was
    /// rejected by the pre-flight capacity check before any phase ran.
    orchestrator::AdmissionReason admission =
        orchestrator::AdmissionReason::kAdmitted;

    [[nodiscard]] sim::SimTime total() const { return finished - started; }
};

struct DeployOptions {
    /// Probe the instance port until it accepts before reporting done.
    bool wait_ready = true;
    /// Skip the Pull phase check (assume the caller pre-pulled).
    bool assume_image_present = false;
};

class DeploymentEngine {
public:
    using Callback =
        std::function<void(bool ok, const orchestrator::InstanceInfo& instance)>;

    DeploymentEngine(sim::Simulation& sim, PortProber& prober,
                     sim::SimTime instance_poll = sim::milliseconds(20));

    /// Ensure `spec` has a ready instance in `cluster`, running whichever of
    /// the three phases are still needed.
    void ensure(orchestrator::Cluster& cluster, const orchestrator::ServiceSpec& spec,
                DeployOptions options, Callback done);

    /// Scale Down / Remove (paper fig. 4 teardown path).
    void scale_down(orchestrator::Cluster& cluster, const std::string& service,
                    orchestrator::Cluster::BoolCallback done);
    void remove(orchestrator::Cluster& cluster, const std::string& service,
                orchestrator::Cluster::BoolCallback done);

    [[nodiscard]] const std::vector<DeploymentRecord>& records() const {
        return records_;
    }
    void clear_records() { records_.clear(); }

    [[nodiscard]] std::size_t inflight() const { return inflight_.size(); }

    /// Deployments currently in flight against `cluster` -- the early load
    /// signal schedulers need before any instance is visible (a deployment
    /// spends seconds in Pull with total_instances() still reading zero).
    [[nodiscard]] std::size_t inflight_for(const orchestrator::Cluster& cluster) const {
        const auto it = inflight_per_cluster_.find(&cluster);
        return it == inflight_per_cluster_.end() ? 0 : it->second;
    }

private:
    struct Job;
    void run_pull(const std::shared_ptr<Job>& job);
    void run_create(const std::shared_ptr<Job>& job);
    void run_scale_up(const std::shared_ptr<Job>& job);
    void await_instance(const std::shared_ptr<Job>& job, sim::SimTime started);
    void run_wait_ready(const std::shared_ptr<Job>& job,
                        const orchestrator::InstanceInfo& instance);
    void finish(const std::shared_ptr<Job>& job, bool ok,
                const orchestrator::InstanceInfo& instance);

    sim::Simulation& sim_;
    PortProber& prober_;
    sim::SimTime instance_poll_;
    std::vector<DeploymentRecord> records_;
    std::map<std::string, std::vector<Callback>> inflight_; ///< key: cluster|service
    std::map<const orchestrator::Cluster*, std::size_t> inflight_per_cluster_;
};

} // namespace tedge::core

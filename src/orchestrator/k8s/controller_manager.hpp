// kube-controller-manager: the deployment, replicaset, and endpoints
// control loops. Each loop reacts to watch events after its sync latency and
// writes desired state back through the API server -- never directly, so
// every hop pays realistic propagation costs. An endpoints sync indexes the
// serving pods by their edge.service label once, so it costs services + pods
// rather than services x pods; the replicaset sweep after a pod deletion
// groups the pods by owner once, so it costs replicasets + pods.
#pragma once

#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "orchestrator/k8s/api_server.hpp"

namespace tedge::orchestrator::k8s {

struct ControllerManagerConfig {
    sim::SimTime deployment_sync = sim::milliseconds(35);
    sim::SimTime replicaset_sync = sim::milliseconds(35);
    sim::SimTime endpoints_sync = sim::milliseconds(40);
    std::uint16_t pod_port_base = 20000;  ///< models per-pod IP:targetPort
};

class ControllerManager {
public:
    ControllerManager(sim::Simulation& sim, ApiServer& api,
                      ControllerManagerConfig config = {});

    /// Register the watches; call once after construction.
    void start();

    [[nodiscard]] std::uint64_t deployment_syncs() const { return deployment_syncs_; }
    [[nodiscard]] std::uint64_t replicaset_syncs() const { return replicaset_syncs_; }

private:
    using PodItem = std::pair<const std::string, PodObj>;

    void sync_deployment(const std::string& name);
    /// Sync one replicaset against the pods it owns.
    void sync_replicaset(const std::string& name);
    /// Sync every replicaset in name order (after a pod deletion).
    void sync_all_replicasets();
    /// `pods`: the store's pods owned by `name`, in store order.
    void sync_replicaset(const std::string& name,
                         const std::vector<const PodItem*>& pods);
    void sync_endpoints();

    sim::Simulation& sim_;
    ApiServer& api_;
    ControllerManagerConfig config_;
    // Expectations (as in kube-controller-manager): pod writes requested but
    // not yet observable through the API server. Without them, two syncs of
    // the same replicaset racing within one API round-trip both see the old
    // pod count and both act -- duplicate pods on create, double deletes on
    // scale-down.
    std::map<std::string, int> pending_creates_;       ///< rs name -> in-flight pod creates
    std::set<std::string> pending_terminations_;       ///< pod names being terminated
    std::uint64_t pod_counter_ = 0;
    std::uint16_t next_pod_port_;
    std::uint64_t deployment_syncs_ = 0;
    std::uint64_t replicaset_syncs_ = 0;
    bool started_ = false;
};

} // namespace tedge::orchestrator::k8s

// kube-controller-manager: the deployment, replicaset, and endpoints
// control loops. Each loop reacts to watch events after its sync latency and
// writes desired state back through the API server -- never directly, so
// every hop pays realistic propagation costs.
//
// The loops read the stores through indexes that write hooks keep current
// (DESIGN §4b, "A control plane that costs per change"), so a sync costs
// what changed, not the size of the cluster. The endpoints loop recomputes
// only dirty services: a service is marked when it is written, when a pod
// whose edge.service label (before or after the write) its selector names
// is written, and -- for a selector without edge.service -- when any pod is
// written. Marks are made at store-write time, because a sync reads the
// store directly while watch events arrive 25 ms after the write. A sync
// visits the dirty services in name order and clears one only when its
// computed endpoints equal its stored ones, so it makes exactly the writes
// a sync of every service would. The replicaset loop takes each
// replicaset's pods from an owner index. After a pod deletion it syncs, in
// name order, only the replicasets whose sync would act -- those whose live
// pods plus pending creates differ from their replicas -- which write hooks
// and the expectation updates keep in a name-ordered set; the writes are
// those of a sync of every replicaset.
#pragma once

#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "orchestrator/k8s/api_server.hpp"
#include "orchestrator/k8s/store_index.hpp"

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
    using PodItem = ObjectStore<PodObj>::Item;
    using ReplicaSetItem = ObjectStore<ReplicaSetObj>::Item;
    using ServiceItem = ObjectStore<ServiceObj>::Item;

    void sync_deployment(const std::string& name);
    /// Sync one replicaset against the pods it owns.
    void sync_replicaset(const std::string& name);
    /// Sync the unsettled replicasets in name order (after a pod deletion).
    void sync_unsettled_replicasets();
    /// Whether a pod of a replicaset counts toward its replicas: neither
    /// terminating nor pending termination.
    [[nodiscard]] bool counts(const PodItem& pod) const;
    /// Whether a sync of `rs` would act: its counted pods plus its pending
    /// creates differ from its replicas.
    [[nodiscard]] bool unsettled(const ReplicaSetItem& rs) const;
    /// Bring `rs`'s place in unsettled_ up to date.
    void place(const ReplicaSetItem& rs);
    /// place() the replicaset named `name`, if it is stored.
    void place(const std::string& name);
    /// Recompute the dirty services' endpoints, in name order.
    void sync_endpoints();
    /// Write `svc`'s endpoints if they differ from the computed ones;
    /// returns whether they already agreed.
    bool sync_service(const ServiceObj& svc);
    void mark_dirty(const ServiceItem* svc);
    /// Mark the services whose endpoints a write of `pod` can change.
    void mark_dirty_for(const PodObj& pod);

    sim::Simulation& sim_;
    ApiServer& api_;
    ControllerManagerConfig config_;
    StoreIndex<PodObj> pods_by_label_;        ///< by edge.service label
    StoreIndex<PodObj> pods_by_owner_;        ///< by owner_rs
    StoreIndex<ServiceObj> services_by_selector_;  ///< by selector's edge.service
    StoreIndex<ServiceObj> unkeyed_services_; ///< selectors without edge.service
    /// Services whose stored endpoints may differ from the computed ones,
    /// in name order.
    std::vector<const ServiceItem*> dirty_;
    /// Replicasets whose sync would act, in name order.
    std::vector<const ReplicaSetItem*> unsettled_;
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

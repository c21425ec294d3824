#include "orchestrator/k8s/controller_manager.hpp"

#include <algorithm>
#include <vector>

namespace tedge::orchestrator::k8s {

namespace {
/// The label every edge-service pod carries and every k8s Service selects on.
const std::string kServiceLabel = "edge.service";
/// The one key of the index of selectors without edge.service.
const std::string kNoServiceKey;

const std::string* find_service_label(const std::map<std::string, std::string>& labels) {
    const auto it = labels.find(kServiceLabel);
    return it == labels.end() ? nullptr : &it->second;
}

const std::string* pod_service_label(const PodObj& pod) {
    return find_service_label(pod.spec.labels);
}
const std::string* pod_owner(const PodObj& pod) { return &pod.owner_rs; }
const std::string* selector_service(const ServiceObj& svc) {
    return find_service_label(svc.selector);
}
const std::string* unkeyed_selector(const ServiceObj& svc) {
    return svc.selector.contains(kServiceLabel) ? nullptr : &kNoServiceKey;
}

constexpr auto by_name = StoreIndex<ServiceObj>::by_name;
constexpr auto by_rs_name = StoreIndex<ReplicaSetObj>::by_name;
} // namespace

ControllerManager::ControllerManager(sim::Simulation& sim, ApiServer& api,
                                     ControllerManagerConfig config)
    : sim_(sim), api_(api), config_(config),
      pods_by_label_(api.pods(), pod_service_label),
      pods_by_owner_(api.pods(), pod_owner),
      services_by_selector_(api.services(), selector_service),
      unkeyed_services_(api.services(), unkeyed_selector),
      next_pod_port_(config.pod_port_base) {
    // Every stored service starts dirty; a pod write marks its old and new
    // label groups, a service write marks the service itself. A pod write
    // also re-places its owner replicaset: this hook runs after the owner
    // index's, so an erased pod is already out of its owner's group.
    const auto on_pod = [this](const PodItem& item) {
        mark_dirty_for(item.second);
        place(item.second.owner_rs);
    };
    api_.pods().add_write_hook({on_pod, on_pod});
    api_.replicasets().add_write_hook(
        {[this](const ReplicaSetItem& item) {
             const auto it =
                 std::lower_bound(unsettled_.begin(), unsettled_.end(), &item, by_rs_name);
             if (it != unsettled_.end() && *it == &item) unsettled_.erase(it);
         },
         [this](const ReplicaSetItem& item) { place(item); }});
    api_.services().add_write_hook(
        {[this](const ServiceItem& item) {
             const auto it = std::lower_bound(dirty_.begin(), dirty_.end(), &item, by_name);
             if (it != dirty_.end() && *it == &item) dirty_.erase(it);
         },
         [this](const ServiceItem& item) { mark_dirty(&item); }});
}

void ControllerManager::mark_dirty(const ServiceItem* svc) {
    const auto it = std::lower_bound(dirty_.begin(), dirty_.end(), svc, by_name);
    if (it == dirty_.end() || *it != svc) dirty_.insert(it, svc);
}

void ControllerManager::mark_dirty_for(const PodObj& pod) {
    if (const std::string* label = pod_service_label(pod)) {
        for (const ServiceItem* svc : services_by_selector_.group(*label)) mark_dirty(svc);
    }
    for (const ServiceItem* svc : unkeyed_services_.group(kNoServiceKey)) mark_dirty(svc);
}

bool ControllerManager::counts(const PodItem& pod) const {
    return pod.second.phase != PodPhase::kTerminating &&
           !pending_terminations_.contains(pod.first);
}

bool ControllerManager::unsettled(const ReplicaSetItem& rs) const {
    const auto& [name, obj] = rs;
    const auto& group = pods_by_owner_.group(name);
    const auto counted = std::count_if(group.begin(), group.end(),
                                       [this](const PodItem* pod) { return counts(*pod); });
    const auto pending = pending_creates_.find(name);
    return counted + (pending == pending_creates_.end() ? 0 : pending->second) != obj.replicas;
}

void ControllerManager::place(const ReplicaSetItem& rs) {
    const auto it = std::lower_bound(unsettled_.begin(), unsettled_.end(), &rs, by_rs_name);
    const bool listed = it != unsettled_.end() && *it == &rs;
    if (unsettled(rs) == listed) return;
    if (listed) {
        unsettled_.erase(it);
    } else {
        unsettled_.insert(it, &rs);
    }
}

void ControllerManager::place(const std::string& name) {
    const auto& items = api_.replicasets().items();
    if (const auto it = items.find(name); it != items.end()) place(*it);
}

void ControllerManager::start() {
    if (started_) return;
    started_ = true;

    api_.deployments().watch([this](const WatchEvent& event) {
        if (event.type == WatchEventType::kDeleted) return;
        sim_.schedule(config_.deployment_sync,
                      [this, name = event.name] { sync_deployment(name); });
    });
    api_.replicasets().watch([this](const WatchEvent& event) {
        if (event.type == WatchEventType::kDeleted) return;
        sim_.schedule(config_.replicaset_sync,
                      [this, name = event.name] { sync_replicaset(name); });
    });
    // Pod lifecycle changes drive both the owning replicaset (replacements)
    // and the endpoints of any selecting service.
    api_.pods().watch([this](const WatchEvent& event) {
        sim_.schedule(config_.endpoints_sync, [this] { sync_endpoints(); });
        if (event.type == WatchEventType::kDeleted) {
            // The owner RS may need a replacement pod.
            sim_.schedule(config_.replicaset_sync, [this] { sync_unsettled_replicasets(); });
        }
    });
    api_.services().watch([this](const WatchEvent& event) {
        if (event.type == WatchEventType::kDeleted) return;
        sim_.schedule(config_.endpoints_sync, [this] { sync_endpoints(); });
    });
}

void ControllerManager::sync_deployment(const std::string& name) {
    ++deployment_syncs_;
    const auto* deployment = api_.deployments().get(name);
    if (deployment == nullptr) return;
    const std::string rs_name = name + "-rs";
    const auto* rs = api_.replicasets().get(rs_name);

    if (rs == nullptr) {
        ReplicaSetObj new_rs;
        new_rs.name = rs_name;
        new_rs.owner = name;
        new_rs.spec = deployment->spec;
        new_rs.replicas = deployment->replicas;
        api_.request([this, new_rs] {
            api_.replicasets().upsert(new_rs.name, new_rs);
        });
        return;
    }
    if (rs->replicas != deployment->replicas) {
        ReplicaSetObj updated = *rs;
        updated.replicas = deployment->replicas;
        api_.request([this, updated] {
            api_.replicasets().upsert(updated.name, updated);
        });
    }
}

void ControllerManager::sync_unsettled_replicasets() {
    // A sync changes no other replicaset's counts, so the replicasets a
    // sync of every replicaset would act on are the unsettled ones as they
    // stand when the sweep starts.
    const std::vector<const ReplicaSetItem*> sweep = unsettled_;
    for (const ReplicaSetItem* rs : sweep) sync_replicaset(rs->first);
}

void ControllerManager::sync_replicaset(const std::string& name) {
    ++replicaset_syncs_;
    const auto* rs = api_.replicasets().get(name);
    if (rs == nullptr) return;

    // Pods with an in-flight termination request count as already gone;
    // in-flight creates count as already present. This mirrors the
    // expectations mechanism in kube-controller-manager and keeps two syncs
    // racing within one API round-trip from both acting on stale counts.
    std::vector<const PodObj*> owned;
    for (const PodItem* item : pods_by_owner_.group(name)) {
        if (counts(*item)) owned.push_back(&item->second);
    }

    const int want = rs->replicas;
    const int have = static_cast<int>(owned.size()) + pending_creates_[name];

    if (have < want) {
        for (int i = 0; i < want - have; ++i) {
            PodObj pod;
            pod.name = name + "-" + std::to_string(pod_counter_++);
            pod.owner_rs = name;
            pod.spec = rs->spec;
            pod.scheduler_name = rs->spec.scheduler_name;
            pod.resources = rs->spec.resource_request();
            pod.pod_port = next_pod_port_++;
            if (next_pod_port_ < config_.pod_port_base) {
                next_pod_port_ = config_.pod_port_base; // wrapped
            }
            pod.phase = PodPhase::kPending;
            pod.phase_since = sim_.now();
            ++pending_creates_[name];
            api_.request([this, pod, name] {
                --pending_creates_[name];
                api_.pods().upsert(pod.name, pod);
            });
        }
    } else if (have > want) {
        // Terminate the newest pods first (Kubernetes' default preference is
        // similar: not-ready and youngest first). Pending creates cannot be
        // terminated yet: a replicaset scaled below them keeps the excess
        // until its pods exist and a later sync removes them.
        std::sort(owned.begin(), owned.end(), [](const PodObj* a, const PodObj* b) {
            if (a->ready != b->ready) return !a->ready; // not-ready first
            return a->phase_since > b->phase_since;     // youngest first
        });
        const int excess = std::min(have - want, static_cast<int>(owned.size()));
        for (int i = 0; i < excess; ++i) {
            PodObj updated = *owned[static_cast<std::size_t>(i)];
            updated.phase = PodPhase::kTerminating;
            updated.ready = false;
            updated.phase_since = sim_.now();
            pending_terminations_.insert(updated.name);
            api_.request([this, updated] {
                pending_terminations_.erase(updated.name);
                api_.pods().upsert(updated.name, updated);
            });
        }
    }
    // The expectations just changed; the writes that settle them re-place
    // the replicaset through the pod hook.
    place(name);
}

void ControllerManager::sync_endpoints() {
    // Syncs write only through ApiServer::request, which schedules the
    // write, so the dirty set cannot change inside this loop. A service
    // whose endpoints differ stays dirty until its write lands and agrees.
    std::size_t kept = 0;
    for (const ServiceItem* item : dirty_) {
        if (!sync_service(item->second)) dirty_[kept++] = item;
    }
    dirty_.resize(kept);
}

bool ControllerManager::sync_service(const ServiceObj& svc) {
    std::vector<EndpointEntry> endpoints;
    const auto consider = [&](const PodItem& item) {
        const auto& [pod_name, pod] = item;
        if (pod.phase != PodPhase::kRunning || !pod.ready || !pod.node.valid()) return;
        // Selector match: every selector pair must appear in pod labels
        // (ServiceSpec labels carry edge.service=<name>).
        for (const auto& [k, v] : svc.selector) {
            const auto it = pod.spec.labels.find(k);
            if (it == pod.spec.labels.end() || it->second != v) return;
        }
        endpoints.push_back(EndpointEntry{pod_name, pod.node, pod.pod_port});
    };
    // A selector naming edge.service can only match that label's group; any
    // other selector is checked against the whole pod store.
    if (const std::string* label = selector_service(svc)) {
        for (const PodItem* item : pods_by_label_.group(*label)) consider(*item);
    } else {
        for (const PodItem& item : api_.pods().items()) consider(item);
    }
    if (endpoints == svc.endpoints) return true;
    ServiceObj updated = svc;
    updated.endpoints = std::move(endpoints);
    api_.request([this, updated] { api_.services().upsert(updated.name, updated); });
    return false;
}

} // namespace tedge::orchestrator::k8s

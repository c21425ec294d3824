#include "orchestrator/k8s/controller_manager.hpp"

#include <algorithm>
#include <string_view>
#include <unordered_map>
#include <vector>

namespace tedge::orchestrator::k8s {

namespace {
/// The label every edge-service pod carries and every k8s Service selects on.
const std::string kServiceLabel = "edge.service";
} // namespace

ControllerManager::ControllerManager(sim::Simulation& sim, ApiServer& api,
                                     ControllerManagerConfig config)
    : sim_(sim), api_(api), config_(config),
      next_pod_port_(config.pod_port_base) {}

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
            sim_.schedule(config_.replicaset_sync, [this] { sync_all_replicasets(); });
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

void ControllerManager::sync_replicaset(const std::string& name) {
    std::vector<const PodItem*> pods;
    for (const PodItem& item : api_.pods().items()) {
        if (item.second.owner_rs == name) pods.push_back(&item);
    }
    sync_replicaset(name, pods);
}

void ControllerManager::sync_all_replicasets() {
    // One pass groups the pod store by owner, so the sweep costs
    // replicasets + pods. The store cannot change inside the sweep: every
    // write a sync makes goes through ApiServer::request, which schedules it.
    std::unordered_map<std::string_view, std::vector<const PodItem*>> by_owner;
    for (const PodItem& item : api_.pods().items()) {
        by_owner[item.second.owner_rs].push_back(&item);
    }
    const std::vector<const PodItem*> none;
    for (const auto& [name, rs] : api_.replicasets().items()) {
        const auto group = by_owner.find(name);
        sync_replicaset(name, group == by_owner.end() ? none : group->second);
    }
}

void ControllerManager::sync_replicaset(const std::string& name,
                                        const std::vector<const PodItem*>& pods) {
    ++replicaset_syncs_;
    const auto* rs = api_.replicasets().get(name);
    if (rs == nullptr) return;

    // Pods with an in-flight termination request count as already gone;
    // in-flight creates count as already present. This mirrors the
    // expectations mechanism in kube-controller-manager and keeps two syncs
    // racing within one API round-trip from both acting on stale counts.
    std::vector<const PodObj*> owned;
    for (const PodItem* item : pods) {
        const auto& [pod_name, pod] = *item;
        if (pod.phase != PodPhase::kTerminating &&
            pending_terminations_.count(pod_name) == 0) {
            owned.push_back(&pod);
        }
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
        // similar: not-ready and youngest first).
        std::sort(owned.begin(), owned.end(), [](const PodObj* a, const PodObj* b) {
            if (a->ready != b->ready) return !a->ready; // not-ready first
            return a->phase_since > b->phase_since;     // youngest first
        });
        for (int i = 0; i < have - want; ++i) {
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
}

void ControllerManager::sync_endpoints() {
    // One pass over the pod store: the serving pods (running, ready, bound)
    // in pod-name order, and the same grouped by their edge.service label.
    std::vector<const PodItem*> serving;
    std::unordered_map<std::string_view, std::vector<const PodItem*>> by_service;
    for (const PodItem& item : api_.pods().items()) {
        const PodObj& pod = item.second;
        if (pod.phase != PodPhase::kRunning || !pod.ready) continue;
        if (!pod.node.valid()) continue;
        serving.push_back(&item);
        const auto label = pod.spec.labels.find(kServiceLabel);
        if (label != pod.spec.labels.end()) by_service[label->second].push_back(&item);
    }

    const std::vector<const PodItem*> none;
    for (const auto& [svc_name, svc] : api_.services().items()) {
        // A selector naming edge.service can only match that label's group;
        // any other selector is checked against every serving pod.
        const std::vector<const PodItem*>* candidates = &serving;
        if (const auto key = svc.selector.find(kServiceLabel); key != svc.selector.end()) {
            const auto group = by_service.find(key->second);
            candidates = group == by_service.end() ? &none : &group->second;
        }
        std::vector<EndpointEntry> endpoints;
        for (const PodItem* item : *candidates) {
            const auto& [pod_name, pod] = *item;
            // Selector match: every selector pair must appear in pod labels
            // (ServiceSpec labels carry edge.service=<name>).
            bool match = true;
            for (const auto& [k, v] : svc.selector) {
                const auto it = pod.spec.labels.find(k);
                if (it == pod.spec.labels.end() || it->second != v) {
                    match = false;
                    break;
                }
            }
            if (!match) continue;
            endpoints.push_back(EndpointEntry{pod_name, pod.node, pod.pod_port});
        }
        if (endpoints != svc.endpoints) {
            ServiceObj updated = svc;
            updated.endpoints = std::move(endpoints);
            api_.request([this, updated] { api_.services().upsert(updated.name, updated); });
        }
    }
}

} // namespace tedge::orchestrator::k8s

// The Kubernetes API server: a typed object store with asynchronous request
// latency and watch fan-out. Every control-loop hop in the cluster crosses
// this component, which is precisely where the paper's ~3 s Kubernetes
// scale-up overhead accumulates. Synchronous write hooks let the control
// loops keep indexes over a store (StoreIndex) that never lag behind it.
#pragma once

#include <functional>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "orchestrator/k8s/objects.hpp"
#include "simcore/simulation.hpp"

namespace tedge::orchestrator::k8s {

struct ApiServerConfig {
    sim::SimTime request_latency = sim::milliseconds(8);  ///< per API round trip
    sim::SimTime watch_latency = sim::milliseconds(25);   ///< event propagation
};

/// One typed collection with watch support.
template <typename T>
class ObjectStore {
public:
    using Item = typename std::map<std::string, T>::value_type;
    using Watcher = std::function<void(const WatchEvent&)>;

    /// A synchronous observer of store writes, for state that must agree
    /// with the store at every instant (a watcher hears of a write only
    /// `watch_latency` later). `unindex` sees an item just before a write
    /// replaces or erases it, `index` sees it just after a write stores it;
    /// an item's address is stable until it is erased. A hook must not
    /// write to the store.
    struct WriteHook {
        std::function<void(const Item&)> unindex;
        std::function<void(const Item&)> index;
    };

    explicit ObjectStore(sim::Simulation& sim, ApiServerConfig& config)
        : sim_(&sim), config_(&config) {}

    [[nodiscard]] const T* get(const std::string& name) const {
        const auto it = items_.find(name);
        return it == items_.end() ? nullptr : &it->second;
    }

    [[nodiscard]] std::vector<std::string> names() const {
        std::vector<std::string> out;
        out.reserve(items_.size());
        for (const auto& [name, item] : items_) out.push_back(name);
        return out;
    }

    [[nodiscard]] const std::map<std::string, T>& items() const { return items_; }
    [[nodiscard]] std::size_t size() const { return items_.size(); }

    void watch(Watcher watcher) { watchers_.push_back(std::move(watcher)); }

    /// Register `hook` and index the items already stored, in name order.
    void add_write_hook(WriteHook hook) {
        for (const Item& item : items_) hook.index(item);
        hooks_.push_back(std::move(hook));
    }

    // Store-side mutations (already past request latency; used by ApiServer).
    bool upsert(const std::string& name, T item) {
        auto it = items_.lower_bound(name);
        const bool inserted = it == items_.end() || it->first != name;
        if (inserted) {
            it = items_.emplace_hint(it, name, std::move(item));
        } else {
            for (const auto& h : hooks_) h.unindex(*it);
            it->second = std::move(item);
        }
        for (const auto& h : hooks_) h.index(*it);
        notify(WatchEvent{inserted ? WatchEventType::kAdded : WatchEventType::kModified,
                          name});
        return inserted;
    }

    bool erase(const std::string& name) {
        const auto it = items_.find(name);
        if (it == items_.end()) return false;
        for (const auto& h : hooks_) h.unindex(*it);
        items_.erase(it);
        notify(WatchEvent{WatchEventType::kDeleted, name});
        return true;
    }

private:
    void notify(const WatchEvent& event) {
        for (const auto& w : watchers_) {
            sim_->schedule(config_->watch_latency, [w, event] { w(event); });
        }
    }

    sim::Simulation* sim_;
    ApiServerConfig* config_;
    std::map<std::string, T> items_;
    std::vector<Watcher> watchers_;
    std::vector<WriteHook> hooks_;
};

class ApiServer {
public:
    explicit ApiServer(sim::Simulation& sim, ApiServerConfig config = {});

    /// Run `mutation` against the stores after one request round trip, then
    /// invoke `done` (if given). All writes go through here so request
    /// latency is uniformly charged.
    void request(std::function<void()> mutation, std::function<void()> done = {});

    [[nodiscard]] ObjectStore<DeploymentObj>& deployments() { return deployments_; }
    [[nodiscard]] ObjectStore<ReplicaSetObj>& replicasets() { return replicasets_; }
    [[nodiscard]] ObjectStore<PodObj>& pods() { return pods_; }
    [[nodiscard]] ObjectStore<ServiceObj>& services() { return services_; }
    [[nodiscard]] const ObjectStore<DeploymentObj>& deployments() const {
        return deployments_;
    }
    [[nodiscard]] const ObjectStore<ReplicaSetObj>& replicasets() const {
        return replicasets_;
    }
    [[nodiscard]] const ObjectStore<PodObj>& pods() const { return pods_; }
    [[nodiscard]] const ObjectStore<ServiceObj>& services() const { return services_; }

    [[nodiscard]] const ApiServerConfig& config() const { return config_; }
    [[nodiscard]] sim::Simulation& simulation() { return sim_; }
    [[nodiscard]] std::uint64_t request_count() const { return requests_; }

private:
    sim::Simulation& sim_;
    ApiServerConfig config_;
    ObjectStore<DeploymentObj> deployments_;
    ObjectStore<ReplicaSetObj> replicasets_;
    ObjectStore<PodObj> pods_;
    ObjectStore<ServiceObj> services_;
    std::uint64_t requests_ = 0;
};

} // namespace tedge::orchestrator::k8s

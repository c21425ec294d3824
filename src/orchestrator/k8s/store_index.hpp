// StoreIndex: a secondary index over one ObjectStore, in the manner of a
// client-go informer indexer. Each item is filed under the key its key
// function yields, and every key's group is kept in name order -- the
// order of ObjectStore::items() -- so a loop over a group visits the same
// items, in the same order, as a filtered loop over the whole store. A
// write hook maintains the index inside each upsert and erase, so a read
// at any instant agrees with the store.
#pragma once

#include <algorithm>
#include <string>
#include <unordered_map>
#include <vector>

#include "orchestrator/k8s/api_server.hpp"

namespace tedge::orchestrator::k8s {

template <typename T>
class StoreIndex {
public:
    using Item = typename ObjectStore<T>::Item;
    using Group = std::vector<const Item*>;
    /// The key an item is filed under, or nullptr to leave it out.
    using KeyFn = const std::string* (*)(const T&);

    StoreIndex(ObjectStore<T>& store, KeyFn key) : key_(key) {
        store.add_write_hook({[this](const Item& item) { unindex(item); },
                              [this](const Item& item) { index(item); }});
    }

    // The store's hook refers to this object.
    StoreIndex(const StoreIndex&) = delete;
    StoreIndex& operator=(const StoreIndex&) = delete;

    /// The items filed under `key`, in name order.
    [[nodiscard]] const Group& group(const std::string& key) const {
        static const Group kEmpty;
        const auto it = groups_.find(key);
        return it == groups_.end() ? kEmpty : it->second;
    }

    /// The order of a group, and of ObjectStore::items().
    static bool by_name(const Item* a, const Item* b) { return a->first < b->first; }

private:
    void index(const Item& item) {
        const std::string* key = key_(item.second);
        if (key == nullptr) return;
        Group& group = groups_[*key];
        group.insert(std::lower_bound(group.begin(), group.end(), &item, by_name), &item);
    }

    void unindex(const Item& item) {
        const std::string* key = key_(item.second);
        if (key == nullptr) return;
        Group& group = groups_.find(*key)->second;
        group.erase(std::lower_bound(group.begin(), group.end(), &item, by_name));
    }

    KeyFn key_;
    /// Emptied groups stay, so a key that comes back reuses its storage.
    std::unordered_map<std::string, Group> groups_;
};

} // namespace tedge::orchestrator::k8s

#include "sdn/flow_memory.hpp"

#include <algorithm>
#include <stdexcept>

#include "simcore/metrics_registry.hpp"

namespace tedge::sdn {

namespace {
constexpr std::size_t kInitialCapacity = 16;
// Grow when live + tombstones exceed 3/4 of capacity: linear probing stays
// short and the probe array never fills.
constexpr std::size_t load_limit(std::size_t capacity) {
    return capacity - capacity / 4;
}
} // namespace

FlowMemory::FlowMemory(sim::Simulation& sim, Config config)
    : sim_(sim), config_(config),
      chunks_(kInitialCapacity / kChunkSlots, kEmptyChunk) {
    // The old periodic scan validated this via schedule_periodic; expiry
    // buckets are quantized by the same period, so keep the same contract.
    if (config_.scan_period <= sim::SimTime::zero()) {
        throw std::invalid_argument("non-positive period");
    }
}

FlowMemory::~FlowMemory() {
    for (auto& [bucket, pending] : expiry_buckets_) pending.event.cancel();
}

std::uint32_t FlowMemory::address_id(const net::ServiceAddress& address) {
    if (const auto it = address_ids_.find(address); it != address_ids_.end()) {
        return it->second;
    }
    const auto id = static_cast<std::uint32_t>(addresses_.size());
    if (id == 0xFFFFFFFFu) throw std::length_error("FlowMemory: address space full");
    address_ids_.emplace(address, id);
    addresses_.push_back(address);
    return id;
}

std::optional<std::uint32_t>
FlowMemory::find_address(const net::ServiceAddress& address) const {
    const auto it = address_ids_.find(address);
    return it == address_ids_.end() ? std::nullopt : std::optional{it->second};
}

std::size_t FlowMemory::probe(Key64 key) const {
    const std::size_t mask = capacity() - 1;
    const std::uint8_t tag = tag_of(key);
    std::size_t slot = hash_key(key) & mask;
    std::size_t insert_at = kNpos;
    for (;;) {
        const std::uint8_t t = tag_at(slot);
        if (t == kEmptyTag) return insert_at != kNpos ? insert_at : slot;
        if (t == kTombstoneTag) {
            if (insert_at == kNpos) insert_at = slot;
        } else if (t == tag && pool_[index_at(slot)].key == key) {
            return slot;
        }
        slot = (slot + 1) & mask;
    }
}

std::size_t FlowMemory::find_slot(Key64 key) const {
    const std::size_t mask = capacity() - 1;
    const std::uint8_t tag = tag_of(key);
    std::size_t slot = hash_key(key) & mask;
    for (;;) {
        const std::uint8_t t = tag_at(slot);
        if (t == kEmptyTag) return kNpos;
        if (t == tag && pool_[index_at(slot)].key == key) return slot;
        slot = (slot + 1) & mask;
    }
}

void FlowMemory::grow(std::size_t min_capacity) {
    std::size_t capacity = min_capacity < kInitialCapacity ? kInitialCapacity
                                                           : min_capacity;
    while (pool_.size() >= load_limit(capacity)) capacity *= 2;
    chunks_.assign(capacity / kChunkSlots, kEmptyChunk);
    tombstones_ = 0;
    pending_slot_ = kNpos;
    const std::size_t mask = capacity - 1;
    for (std::size_t i = 0; i < pool_.size(); ++i) {
        std::size_t slot = hash_key(pool_[i].key) & mask;
        while (tag_at(slot) != kEmptyTag) slot = (slot + 1) & mask;
        tag_at(slot) = tag_of(pool_[i].key);
        index_at(slot) = static_cast<std::uint32_t>(i);
        pool_[i].slot = static_cast<std::uint32_t>(slot);
    }
}

void FlowMemory::insert(Key64 key, const FlowRec& rec) {
    if (pool_.size() + tombstones_ + 1 > load_limit(capacity())) {
        // Mostly tombstones (expire/forget churn): rehash in place to scrub
        // them instead of doubling forever; otherwise double.
        grow(pool_.size() * 2 >= load_limit(capacity()) ? capacity() * 2
                                                           : capacity());
    }
    const std::size_t slot = pending_slot_ != kNpos && pending_key_ == key
                                 ? pending_slot_
                                 : probe(key);
    pending_slot_ = kNpos;
    const std::uint8_t t = tag_at(slot);
    if (t != kEmptyTag && t != kTombstoneTag) {
        FlowRec& current = pool_[index_at(slot)].rec;
        const bool moved = current.target.service != rec.target.service ||
                           current.target.cluster != rec.target.cluster;
        if (moved) bump_counters(current.target, -1);
        // Preserve the entry's current expiry filing across the overwrite:
        // it still refers to this key, and file_expiry() below re-files only
        // if the refreshed deadline lands in a different bucket.
        const std::uint64_t filed = current.expiry_bucket;
        current = rec;
        current.expiry_bucket = filed;
        if (moved) bump_counters(rec.target, +1);
        file_expiry(key, current);
        return;
    }
    if (t == kTombstoneTag) --tombstones_;
    if (pool_.size() >= kMaxFlows) {
        throw std::length_error("FlowMemory: flow table full");
    }
    tag_at(slot) = tag_of(key);
    index_at(slot) = static_cast<std::uint32_t>(pool_.size());
    pool_.push_back(Entry{key, rec, static_cast<std::uint32_t>(slot)});
    bump_counters(rec.target, +1);
    // Only fresh insertions touch the client index: an overwrite (above)
    // keeps the same key, so the index already holds it.
    client_index_add(key);
    file_expiry(key, pool_.back().rec);
}

void FlowMemory::client_index_add(Key64 key) {
    if (!config_.track_clients) return;
    client_keys_[static_cast<std::uint32_t>(key >> 32)].push_back(key);
}

void FlowMemory::client_index_remove(Key64 key) {
    if (!config_.track_clients) return;
    const auto it = client_keys_.find(static_cast<std::uint32_t>(key >> 32));
    if (it == client_keys_.end()) return;
    std::vector<Key64>& keys = it->second;
    const auto pos = std::find(keys.begin(), keys.end(), key);
    if (pos == keys.end()) return;
    *pos = keys.back();
    keys.pop_back();
}

void FlowMemory::erase_entry(std::size_t index) {
    bump_counters(pool_[index].rec.target, -1);
    client_index_remove(pool_[index].key);
    tag_at(pool_[index].slot) = kTombstoneTag;
    ++tombstones_;
    pending_slot_ = kNpos;
    const std::size_t last = pool_.size() - 1;
    if (index != last) {
        pool_[index] = pool_[last];
        // The moved entry keeps its probe slot (and so its tag, a pure
        // function of the unchanged key); only the index retargets.
        index_at(pool_[index].slot) = static_cast<std::uint32_t>(index);
    }
    pool_.pop_back();
}

void FlowMemory::bump_counters(const FlowTarget& target, std::int64_t delta) {
    if (target.service >= service_counts_.size()) {
        service_counts_.resize(std::size_t{target.service} + 1, 0);
    }
    std::size_t& pair = pair_counts_[pack_pair(target.service, target.cluster)];
    std::size_t& service = service_counts_[target.service];
    if (delta > 0) {
        ++pair;
        ++service;
    } else {
        if (pair > 0) --pair;
        if (service > 0) --service;
    }
}

std::size_t FlowMemory::pair_count(Key64 pair) const {
    const auto it = pair_counts_.find(pair);
    return it == pair_counts_.end() ? 0 : it->second;
}

MemorizedFlow FlowMemory::materialize(Key64 key, const FlowRec& rec) const {
    MemorizedFlow flow;
    flow.client_ip = net::Ipv4{static_cast<std::uint32_t>(key >> 32)};
    flow.service_address = addresses_[static_cast<std::uint32_t>(key)];
    flow.service_name = symbols_.name(rec.target.service);
    flow.instance_node = rec.target.instance_node;
    flow.instance_port = rec.target.instance_port;
    flow.cluster = symbols_.name(rec.target.cluster);
    flow.created = rec.created;
    flow.last_used = rec.last_used;
    return flow;
}

void FlowMemory::memorize(net::Ipv4 client_ip, std::uint32_t address_id,
                          const FlowTarget& target, sim::SimTime created) {
    if (address_id >= addresses_.size() || target.service >= symbols_.size() ||
        target.cluster >= symbols_.size()) {
        throw std::invalid_argument("FlowMemory::memorize: id not issued by this memory");
    }
    FlowRec rec;
    rec.target = target;
    rec.created = created == sim::SimTime::zero() ? sim_.now() : created;
    rec.last_used = sim_.now();
    insert(pack_key(client_ip.value(), address_id), rec);
}

void FlowMemory::memorize(const MemorizedFlow& flow) {
    const FlowTarget target{intern(flow.service_name), intern(flow.cluster),
                            flow.instance_node, flow.instance_port};
    memorize(flow.client_ip, address_id(flow.service_address), target, flow.created);
}

void FlowMemory::prefetch(net::Ipv4 client_ip,
                          const net::ServiceAddress& service) const {
    const auto address_id = find_address(service);
    if (!address_id) return;
    const Key64 key = pack_key(client_ip.value(), *address_id);
    const std::size_t slot = hash_key(key) & (capacity() - 1);
#if defined(__GNUC__) || defined(__clang__)
    // Write intent: a miss is followed by an insert into this same line.
    __builtin_prefetch(&chunks_[slot / kChunkSlots], 1, 1);
#endif
}

std::optional<FlowTarget>
FlowMemory::recall(net::Ipv4 client_ip, const net::ServiceAddress& service) {
    const auto address_id = find_address(service);
    if (!address_id) {
        ++misses_;
        return std::nullopt;
    }
    return recall(client_ip, *address_id);
}

std::optional<FlowTarget> FlowMemory::recall(net::Ipv4 client_ip,
                                             std::uint32_t address_id) {
    const Key64 key = pack_key(client_ip.value(), address_id);
    // probe(), not find_slot(): on a miss it lands on the insertion slot.
    // Either slot feeds the one-entry pending cache consumed by insert().
    const std::size_t slot = probe(key);
    pending_key_ = key;
    pending_slot_ = slot;
    const std::uint8_t t = tag_at(slot);
    if (t == kEmptyTag || t == kTombstoneTag) {
        ++misses_;
        return std::nullopt;
    }
    Entry& entry = pool_[index_at(slot)];
    if (sim_.now() - entry.rec.last_used >= config_.idle_timeout) {
        ++misses_;
        // Erase, don't just miss: a lingering stale entry would donate its
        // old `created` timestamp to the next memorize() of the same key
        // (created != zero suppresses the reset), skewing flow-age stats.
        erase_entry(index_at(slot));
        if (auto* m = sim_.metrics()) m->counter("sdn.flow_memory.stale_recalls").inc();
        return std::nullopt;
    }
    entry.rec.last_used = sim_.now();
    ++hits_;
    return entry.rec.target;
}

const MemorizedFlow*
FlowMemory::peek(net::Ipv4 client_ip, const net::ServiceAddress& service) const {
    const auto address_id = find_address(service);
    if (!address_id) return nullptr;
    const std::size_t slot = find_slot(pack_key(client_ip.value(), *address_id));
    if (slot == kNpos) return nullptr;
    const Entry& entry = pool_[index_at(slot)];
    peek_scratch_ = materialize(entry.key, entry.rec);
    return &peek_scratch_;
}

std::size_t FlowMemory::forget_service(std::string_view service_name) {
    const auto service = symbols_.find(service_name);
    return service ? forget_service(*service) : 0;
}

std::size_t FlowMemory::forget_service(sim::SymbolId service) {
    std::size_t removed = 0;
    std::size_t index = 0;
    while (index < pool_.size()) {
        if (pool_[index].rec.target.service == service) {
            erase_entry(index); // swap-remove: re-examine the same index
            ++removed;
        } else {
            ++index;
        }
    }
    return removed;
}

std::vector<MemorizedFlow> FlowMemory::flows_of_client(net::Ipv4 client_ip) const {
    std::vector<MemorizedFlow> flows;
    if (config_.track_clients) {
        const auto it = client_keys_.find(client_ip.value());
        if (it == client_keys_.end()) return flows;
        flows.reserve(it->second.size());
        for (const Key64 key : it->second) {
            const std::size_t slot = find_slot(key);
            if (slot == kNpos) continue; // index is maintained; defensive only
            const Entry& entry = pool_[index_at(slot)];
            flows.push_back(materialize(entry.key, entry.rec));
        }
        return flows;
    }
    for (const Entry& entry : pool_) {
        if (static_cast<std::uint32_t>(entry.key >> 32) == client_ip.value()) {
            flows.push_back(materialize(entry.key, entry.rec));
        }
    }
    return flows;
}

std::vector<MemorizedFlow> FlowMemory::extract_client(net::Ipv4 client_ip) {
    std::vector<MemorizedFlow> flows = flows_of_client(client_ip);
    // Erase by key, not pool index: each erase swap-removes and would shift
    // any index list. Stale expiry filings left behind cancel when their
    // bucket fires (find_slot misses, or the key was reused and the bucket
    // field mismatches).
    for (const MemorizedFlow& flow : flows) {
        const auto address_id = find_address(flow.service_address);
        if (!address_id) continue;
        const std::size_t slot =
            find_slot(pack_key(flow.client_ip.value(), *address_id));
        if (slot != kNpos) erase_entry(index_at(slot));
    }
    return flows;
}

bool FlowMemory::forget_flow(net::Ipv4 client_ip,
                             const net::ServiceAddress& service,
                             bool notify_if_idle) {
    const auto address_id = find_address(service);
    if (!address_id) return false;
    const std::size_t slot = find_slot(pack_key(client_ip.value(), *address_id));
    if (slot == kNpos) return false;
    const std::size_t index = index_at(slot);
    const FlowTarget& target = pool_[index].rec.target;
    const Key64 pair = pack_pair(target.service, target.cluster);
    erase_entry(index);
    // Not routed through finish_expiry(): this flow was *removed*, not
    // expired, so the expiry counter must not move -- but the old instance
    // may still have just lost its last user.
    if (notify_if_idle && idle_cb_ && pair_count(pair) == 0) {
        if (auto* m = sim_.metrics()) {
            m->counter("sdn.flow_memory.idle_notifications").inc();
        }
        idle_cb_(symbols_.name(static_cast<sim::SymbolId>(pair >> 32)),
                 symbols_.name(static_cast<sim::SymbolId>(pair)));
    }
    return true;
}

std::size_t FlowMemory::flows_for_service(std::string_view service_name) const {
    const auto service = symbols_.find(service_name);
    if (!service || *service >= service_counts_.size()) return 0;
    return service_counts_[*service];
}

std::size_t FlowMemory::flows_for_service(std::string_view service_name,
                                          std::string_view cluster) const {
    const auto service = symbols_.find(service_name);
    const auto cluster_id = symbols_.find(cluster);
    if (!service || !cluster_id) return 0;
    return pair_count(pack_pair(*service, *cluster_id));
}

std::uint64_t FlowMemory::bucket_for(sim::SimTime deadline) const {
    const std::int64_t period = config_.scan_period.ns();
    const std::int64_t bucket = (deadline.ns() + period - 1) / period;
    // A non-positive idle timeout can put the deadline in the past; the old
    // periodic scan would first have seen such a flow on its next tick. For
    // positive timeouts the max() is a no-op: deadline > now already implies
    // ceil(deadline / period) > floor(now / period).
    const std::int64_t next_tick = sim_.now().ns() / period + 1;
    return static_cast<std::uint64_t>(std::max(bucket, next_tick));
}

FlowMemory::ExpiryBucket& FlowMemory::bucket_node(std::uint64_t bucket) {
    if (cached_bucket_node_ != nullptr && cached_bucket_ == bucket) {
        return *cached_bucket_node_;
    }
    auto [it, fresh] = expiry_buckets_.try_emplace(bucket);
    cached_bucket_ = bucket;
    cached_bucket_node_ = &it->second;
    if (fresh) {
        it->second.event = sim_.schedule_at(
            sim::SimTime{static_cast<std::int64_t>(bucket) *
                         config_.scan_period.ns()},
            [this, bucket] { fire_bucket(bucket); }, /*daemon=*/true);
    }
    return it->second;
}

void FlowMemory::file_expiry(Key64 key, FlowRec& rec) {
    const std::uint64_t bucket = bucket_for(rec.last_used + config_.idle_timeout);
    if (rec.expiry_bucket == bucket) return; // already filed at this deadline
    rec.expiry_bucket = bucket;
    bucket_node(bucket).items.push_back(key);
}

void FlowMemory::fire_bucket(std::uint64_t bucket) {
    const auto it = expiry_buckets_.find(bucket);
    if (it == expiry_buckets_.end()) return;
    const std::vector<Key64> keys = std::move(it->second.items);
    if (cached_bucket_ == bucket) cached_bucket_node_ = nullptr;
    expiry_buckets_.erase(it); // re-files below may re-occupy this map
    const sim::SimTime now = sim_.now();
    std::vector<Key64> expired_pairs;
    std::unordered_map<Key64, bool> seen;
    std::size_t removed = 0;
    for (const Key64 key : keys) {
        const std::size_t slot = find_slot(key);
        if (slot == kNpos) continue; // erased (stale recall/forget) since filing
        const std::size_t index = index_at(slot);
        FlowRec& rec = pool_[index].rec;
        if (rec.expiry_bucket != bucket) continue; // re-filed, or key reused
        if (now - rec.last_used >= config_.idle_timeout) {
            const Key64 pair = pack_pair(rec.target.service, rec.target.cluster);
            if (idle_cb_ && seen.emplace(pair, true).second) {
                expired_pairs.push_back(pair);
            }
            erase_entry(index);
            ++removed;
        } else {
            // Touched since filing: re-file under the deadline its refreshed
            // last_used implies. That deadline is beyond this bucket's
            // instant, so the new bucket is strictly later -- no livelock.
            rec.expiry_bucket = 0;
            file_expiry(key, rec);
        }
    }
    finish_expiry(expired_pairs, removed);
}

std::size_t FlowMemory::expire() {
    const sim::SimTime now = sim_.now();
    // (service, cluster) pairs that lost at least one flow this sweep, in
    // first-expiry order, deduplicated.
    std::vector<Key64> expired_pairs;
    std::unordered_map<Key64, bool> seen;
    std::size_t removed = 0;
    std::size_t index = 0;
    while (index < pool_.size()) {
        const FlowRec& rec = pool_[index].rec;
        if (now - rec.last_used >= config_.idle_timeout) {
            const Key64 pair = pack_pair(rec.target.service, rec.target.cluster);
            if (idle_cb_ && seen.emplace(pair, true).second) {
                expired_pairs.push_back(pair);
            }
            erase_entry(index); // swap-remove: re-examine the same index
            ++removed;
        } else {
            ++index;
        }
    }
    finish_expiry(expired_pairs, removed);
    return removed;
}

void FlowMemory::finish_expiry(const std::vector<Key64>& expired_pairs,
                               std::size_t removed) {
    if (idle_cb_) {
        // Report (service, cluster) pairs whose *last* flow just expired.
        // The count must be per pair: a flow still active on cluster B must
        // not suppress the idle notification for the expired instance on
        // cluster A, or A's instance would never be torn down. The counter
        // makes this check O(1) per expired pair.
        for (const Key64 pair : expired_pairs) {
            if (pair_count(pair) != 0) continue; // still has live flows
            if (auto* m = sim_.metrics()) {
                m->counter("sdn.flow_memory.idle_notifications").inc();
            }
            idle_cb_(symbols_.name(static_cast<sim::SymbolId>(pair >> 32)),
                     symbols_.name(static_cast<sim::SymbolId>(pair)));
        }
    }
    if (removed != 0) {
        if (auto* m = sim_.metrics()) m->counter("sdn.flow_memory.expired").inc(removed);
    }
}

void FlowMemory::for_each(const std::function<void(const MemorizedFlow&)>& fn) const {
    for (const Entry& entry : pool_) {
        fn(materialize(entry.key, entry.rec));
    }
}

void FlowMemory::reserve(std::size_t flows) {
    pool_.reserve(flows);
    // Probe-array headroom so `flows` inserts stay under the load limit
    // without growing mid-fill.
    std::size_t wanted = kInitialCapacity;
    while (load_limit(wanted) <= flows) wanted *= 2;
    if (wanted > capacity()) grow(wanted);
}

} // namespace tedge::sdn

// Priority-ordered flow table with idle/hard timeouts, as installed into the
// OVS switch by the SDN controller.
//
// Lookup fast path: fully-specified entries (src_ip, dst_ip, dst_port, proto
// all concrete -- the common 5G per-flow redirect rule) live in an
// exact-match hash index and resolve in O(1); only wildcard entries are
// linearly scanned. A higher-priority wildcard still beats an exact match,
// preserving OpenFlow semantics and bit-for-bit the results of the old full
// scan.
//
// Expiry is amortized: the table tracks a conservative lower bound on the
// earliest possible expiry and lookups sweep only once that deadline has
// passed, instead of scanning every entry on every packet. Sweep results and
// removed-callback order are identical to the old expire-on-every-lookup
// behaviour because the bound never overshoots a real expiry.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <unordered_map>
#include <vector>

#include "net/flow.hpp"

namespace tedge::net {

class FlowTable {
public:
    using RemovedCallback =
        std::function<void(const FlowEntry&, bool idle /*vs hard*/)>;

    /// Install (or overwrite, if an entry with identical match+priority
    /// exists) a flow entry. Returns true if an existing entry was replaced.
    bool install(FlowEntry entry, sim::SimTime now);

    /// Highest-priority matching live entry; touches its idle timer and
    /// counters. Expired entries are swept (with callbacks) before matching.
    std::optional<FlowEntry> lookup(const Packet& packet, sim::SimTime now);

    /// Read-only match without touching counters/timers.
    [[nodiscard]] const FlowEntry* peek(const Packet& packet, sim::SimTime now) const;

    /// Remove all entries whose match equals `match`. Returns removed count.
    std::size_t remove(const FlowMatch& match);

    /// Remove all entries carrying `cookie`. Returns removed count.
    std::size_t remove_by_cookie(std::uint64_t cookie);

    /// Remove all entries whose match pins src_ip to `src_ip` (wildcard
    /// src entries are kept: they are not client state). Returns count.
    std::size_t remove_by_src_ip(Ipv4 src_ip);

    /// Remove all entries whose action steers to `port` on `node` (a delete
    /// filtered by action: the endpoint closed). Returns removed count.
    std::size_t remove_by_target(NodeId node, std::uint16_t port);

    /// Expire timed-out entries; invokes the removed-callback for each.
    std::size_t expire(sim::SimTime now);

    void set_removed_callback(RemovedCallback cb) { removed_cb_ = std::move(cb); }

    [[nodiscard]] std::size_t size() const { return entries_.size(); }
    [[nodiscard]] const std::vector<FlowEntry>& entries() const { return entries_; }
    void clear();

    /// Total lookups that found no live entry (table misses -> packet-ins).
    [[nodiscard]] std::uint64_t miss_count() const { return misses_; }
    [[nodiscard]] std::uint64_t hit_count() const { return hits_; }

private:
    struct ExactKey {
        std::uint32_t src = 0;
        std::uint32_t dst = 0;
        std::uint16_t dst_port = 0;
        std::uint8_t proto = 0;

        bool operator==(const ExactKey&) const = default;
    };
    struct ExactKeyHash {
        std::size_t operator()(const ExactKey& k) const noexcept {
            // splitmix64 finalizer over the packed fields.
            std::uint64_t x = (std::uint64_t{k.src} << 32) | k.dst;
            x ^= (std::uint64_t{k.dst_port} << 8) | k.proto;
            x += 0x9e3779b97f4a7c15ull;
            x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
            x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
            return static_cast<std::size_t>(x ^ (x >> 31));
        }
    };

    [[nodiscard]] static bool fully_specified(const FlowMatch& m) {
        return m.src_ip && m.dst_ip && m.dst_port && m.proto;
    }
    [[nodiscard]] static ExactKey key_of(const FlowMatch& m) {
        return {m.src_ip->value(), m.dst_ip->value(), *m.dst_port,
                static_cast<std::uint8_t>(*m.proto)};
    }
    [[nodiscard]] static ExactKey key_of(const Packet& p) {
        return {p.src_ip.value(), p.dst_ip.value(), p.dst_port,
                static_cast<std::uint8_t>(p.proto)};
    }

    /// Earliest instant at which `e` can expire, if it has any timeout.
    [[nodiscard]] static std::optional<sim::SimTime> expiry_of(const FlowEntry& e);

    /// Rebuild the exact index and wildcard list from entries_ (after any
    /// structural removal; removals are control-plane-rare, lookups hot).
    void reindex();
    /// Erase every entry satisfying `pred`, then reindex if any went.
    template <typename Pred>
    std::size_t remove_where(Pred pred);
    void note_expiry(const FlowEntry& e);
    void sweep_if_due(sim::SimTime now);

    std::vector<FlowEntry> entries_;
    /// Entry indices of fully-specified matches, bucketed by exact key.
    /// Buckets hold >1 index only when the same match is installed at
    /// several priorities.
    std::unordered_map<ExactKey, std::vector<std::uint32_t>, ExactKeyHash> exact_;
    /// Entry indices with at least one wildcard field (scanned linearly).
    std::vector<std::uint32_t> wildcard_;
    /// Conservative lower bound on the earliest entry expiry; no sweep can
    /// be necessary before this instant. nullopt = nothing can expire.
    std::optional<sim::SimTime> next_expiry_;
    RemovedCallback removed_cb_;
    std::uint64_t misses_ = 0;
    std::uint64_t hits_ = 0;
};

} // namespace tedge::net

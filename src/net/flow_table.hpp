// Priority-ordered flow table with idle/hard timeouts, as installed into the
// OVS switch by the SDN controller.
//
// Storage is a slot pool: every entry keeps a stable slot id from install to
// removal, and freed slots are reused. Fully-specified matches (src_ip,
// dst_ip, dst_port, proto all concrete -- the per-flow redirect rule the
// dispatcher installs) are found through a flat open-addressed index from the
// exact key to the slot of its highest-priority entry; entries sharing a key
// at other priorities hang off that slot in a priority-descending chain.
// Wildcard entries are kept in install order and scanned linearly. A
// higher-priority wildcard still beats an exact match, and equal-priority,
// equal-specificity wildcards resolve to the earliest install, exactly as the
// full scan in peek() does.
//
// Expiry is lazy. Each timed entry has a record (deadline, install seq, slot,
// generation) in a min-heap. A hit only writes last_used and packet_count;
// the heap is untouched. A sweep -- run only inside lookup() and expire() --
// pops the records that are due, drops the stale ones (slot freed or entry
// replaced since filing), re-files entries touched since filing at their new
// deadline, and removes the rest. Every entry expired at `now` is therefore
// gone after a sweep, and removal callbacks fire in (expiry instant, install
// seq) order. Installing, hitting, removing or expiring an exact entry costs
// the same at any table size (the heap adds a log factor); wildcard matching
// scans the wildcard list, and removals other than by exact match scan the
// pool once.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <vector>

#include "net/flow.hpp"

namespace tedge::net {

class FlowTable {
public:
    using RemovedCallback =
        std::function<void(const FlowEntry&, bool idle /*vs hard*/)>;

    /// Install (or overwrite, if a live entry with identical match+priority
    /// exists) a flow entry. Returns true if a live entry was replaced. An
    /// identical entry that has already expired but not yet been swept is
    /// reported to the removed-callback and the new entry is installed fresh
    /// (returns false).
    bool install(FlowEntry entry, sim::SimTime now);

    /// Highest-priority matching live entry; touches its idle timer and
    /// counters. Expired entries are swept (with callbacks) before matching.
    std::optional<FlowEntry> lookup(const Packet& packet, sim::SimTime now);

    /// Read-only full scan without touching counters/timers: the reference
    /// matcher for lookup(). Full ties go to the earliest install.
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

    [[nodiscard]] std::size_t size() const { return live_; }
    /// Copy of the entries in install order (tests and diagnostics).
    [[nodiscard]] std::vector<FlowEntry> entries() const;
    void clear();

    /// Total lookups that found no live entry (table misses -> packet-ins).
    [[nodiscard]] std::uint64_t miss_count() const { return misses_; }
    [[nodiscard]] std::uint64_t hit_count() const { return hits_; }

private:
    static constexpr std::uint32_t kNone = 0xffffffffu;

    struct ExactKey {
        std::uint32_t src = 0;
        std::uint32_t dst = 0;
        std::uint16_t dst_port = 0;
        std::uint8_t proto = 0;

        bool operator==(const ExactKey&) const = default;
    };

    /// Open-addressed (linear probing, backward-shift deletion) map from an
    /// exact key to the head slot of its priority chain.
    class ExactIndex {
    public:
        /// Head slot stored for `key`, or nullptr.
        [[nodiscard]] std::uint32_t* find(const ExactKey& key);
        /// Head slot stored for `key`; a new key gets kNone to fill in.
        std::uint32_t& find_or_insert(const ExactKey& key);
        void erase(const ExactKey& key);

    private:
        struct Cell {
            ExactKey key;
            std::uint32_t slot = kNone;  ///< kNone = empty cell
        };
        [[nodiscard]] static std::size_t hash(const ExactKey& k);
        void grow();

        std::vector<Cell> cells_;  ///< power-of-two size, at most half full
        std::size_t used_ = 0;
    };

    struct Slot {
        FlowEntry entry;
        std::uint64_t seq = 0;          ///< install sequence (tie-breaks, order)
        std::uint32_t generation = 0;   ///< bumped on free and on replacement
        std::uint32_t next = kNone;     ///< lower-priority chain link / free list
        bool live = false;
    };

    /// A lazily maintained expiry record; stale once its slot's generation
    /// moved on, early once the entry was touched after filing.
    struct Deadline {
        sim::SimTime due;
        std::uint64_t seq = 0;
        std::uint32_t slot = kNone;
        std::uint32_t generation = 0;
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

    /// Slot holding an entry with this exact match and priority, or kNone.
    [[nodiscard]] std::uint32_t find_same(const FlowMatch& match, std::uint16_t priority);
    /// Push an expiry record for a slot whose entry has a timeout.
    void file(std::uint32_t id);
    /// Take a slot out of the exact chain or the wildcard order and free it.
    void unlink(std::uint32_t id);
    /// Take a slot out of its exact-key priority chain.
    void unchain(std::uint32_t id);
    /// Return a slot (already out of the index and wildcard order) to the pool.
    void release(std::uint32_t id);
    /// Unlink an expired entry and report it to the removed-callback.
    void remove_expired(std::uint32_t id, sim::SimTime now);
    /// Erase every entry satisfying `pred`.
    template <typename Pred>
    std::size_t remove_where(Pred pred);
    std::size_t sweep(sim::SimTime now);

    std::vector<Slot> slots_;
    std::uint32_t free_head_ = kNone;
    std::size_t live_ = 0;
    std::uint64_t next_seq_ = 0;
    ExactIndex exact_;
    /// Slots of entries with at least one wildcard field, in install order.
    std::vector<std::uint32_t> wildcard_;
    /// Min-heap on (due, seq) of expiry records; at most one current record
    /// per timed entry, due no later than that entry's real expiry.
    std::vector<Deadline> deadlines_;
    RemovedCallback removed_cb_;
    std::uint64_t misses_ = 0;
    std::uint64_t hits_ = 0;
};

} // namespace tedge::net

// FlowMemory (paper §V): the controller memorizes every flow it installs.
//
// This lets the switch run with *low* idle timeouts (keeping its TCAM small)
// while the controller can still answer re-appearing flows instantly from
// memory. Memorized flows carry their own, longer idle timeout; expiry both
// drops stale entries and signals which edge services have gone idle so the
// controller may scale them down.
//
// Scale path: flows are keyed by a packed 64-bit (client-ip,
// service-address-id) key; service and cluster names are interned through a
// sim::SymbolTable so per-flow state is one 56-byte POD pool entry instead
// of two heap strings plus red-black-tree nodes. Storage is split: an
// open-addressed probe array (power-of-two, linear probing, tombstones) over
// a dense record pool, so the half-empty probe slots stay cheap and
// expiry/iteration walk packed memory. Probe metadata is chunked, one cache
// line per 8 slots: a byte tag (7 bits of key hash, or an empty/tombstone
// sentinel) is checked first, and the pool index sharing its line -- then
// the pool entry -- are dereferenced only on a tag match. An absent-key
// probe (the packet-in hot path: every new flow is a recall miss before its
// install) therefore touches ~one random cache line instead of chasing
// random 56-byte pool entries for key comparison, and an insert lands its
// tag and index on that same line; at a million flows that is the
// difference between a cache-line visit and several DRAM round trips per
// packet-in. Per-(service, cluster) and per-service live-flow counters are
// maintained on every insert/erase, making flows_for_service() and the idle
// check O(1) instead of an O(n) scan over all memorized flows.
//
// Expiry is batched into deadline buckets instead of a periodic full-pool
// scan. Time is quantized into scan_period-wide buckets; a flow whose idle
// deadline (last_used + idle_timeout) rounds up into bucket b is filed under
// b, and one daemon kernel event per *non-empty* bucket fires at b *
// scan_period — the same instant the old periodic scan would first have seen
// the flow as expired, so observable expiry timing is unchanged. Touching a
// flow does not re-file it (that would be a hot-path hash lookup): when its
// old bucket fires, a still-fresh flow is lazily re-filed under its current
// deadline. With this, a million idle flows cost one kernel event and one
// O(batch) sweep per occupied bucket rather than O(pool) work every
// scan_period tick.
//
// Bulk admission (DESIGN §9): admit_fluid() adds a batch of n flows, none
// of which will be individually recalled, as anonymous members of their
// (service, cluster) *fluid cohort*. They have no per-flow record at all: a
// batch is one cohort-counter bump plus one run-length drain entry in the
// deadline bucket its admission instant files under, interleaved with pool
// keys in filing order so idle notifications fire at the same instants and
// in the same order n memorize() calls would produce. The live-flow
// counters behind flows_for_service() fuse both populations, so the
// Dispatcher, autoscaler and idle checks read one number. bench_scale's
// hybrid rows fill 10M-100M resident flows this way.
#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "net/address.hpp"
#include "net/packet.hpp"
#include "simcore/simulation.hpp"
#include "simcore/symbol_table.hpp"

namespace tedge::sdn {

/// The caller-facing view of one memorized flow. Materialized on demand from
/// the packed internal record; the strings are the interned spellings.
struct MemorizedFlow {
    net::Ipv4 client_ip;
    net::ServiceAddress service_address;   ///< the registered (cloud) address
    std::string service_name;
    net::NodeId instance_node;
    std::uint16_t instance_port = 0;
    std::string cluster;                   ///< cluster serving the flow
    sim::SimTime created;
    sim::SimTime last_used;
};

class FlowMemory {
public:
    using IdleServiceCallback =
        std::function<void(const std::string& service_name, const std::string& cluster)>;

    struct Config {
        sim::SimTime idle_timeout = sim::seconds(60);
        sim::SimTime scan_period = sim::seconds(5);
        /// Maintain a per-client key index so flows_of_client() /
        /// extract_client() are O(client's flows) instead of O(pool). Off by
        /// default: the index costs a hash update per insert/erase and only
        /// mobility scenarios (handover, cross-shard handoff) read it.
        bool track_clients = false;
    };

    FlowMemory(sim::Simulation& sim, Config config);
    ~FlowMemory();

    /// Record (or refresh) a flow.
    void memorize(const MemorizedFlow& flow);

    /// Look up a live flow and touch its idle timer.
    [[nodiscard]] std::optional<MemorizedFlow>
    recall(net::Ipv4 client_ip, const net::ServiceAddress& service);

    /// Warm the probe line for an upcoming recall()/memorize() of this flow.
    /// A recall at million-flow occupancy is one dependent random load --
    /// effectively a full DRAM round trip that nothing in a packet-in
    /// handler can overlap. A pipeline that knows packet k+1 while serving
    /// packet k calls this to start that load early, hiding the latency
    /// behind the current packet's work. Purely a hint: no observable state
    /// changes.
    void prefetch(net::Ipv4 client_ip, const net::ServiceAddress& service) const;

    /// Look up without touching (for inspection). The returned pointer is
    /// valid until the next FlowMemory call.
    [[nodiscard]] const MemorizedFlow*
    peek(net::Ipv4 client_ip, const net::ServiceAddress& service) const;

    /// Drop all flows towards a service instance (e.g. after scale-down).
    /// Pool records are erased, anonymous cohort members are cancelled
    /// against their filed expiry drains.
    std::size_t forget_service(std::string_view service_name);

    // -------------------------------------------------- client-scoped state
    /// All live flows of one client (materialized copies). O(client's flows)
    /// with track_clients, O(pool) otherwise.
    [[nodiscard]] std::vector<MemorizedFlow> flows_of_client(net::Ipv4 client_ip) const;

    /// Remove and return all of a client's flows -- the donor half of a
    /// cross-shard handoff. Deliberately NO idle notifications: the flows
    /// are moving, not going idle; the adopting shard re-memorizes them and
    /// their idle clock restarts there.
    [[nodiscard]] std::vector<MemorizedFlow> extract_client(net::Ipv4 client_ip);

    /// Drop one (client, service) flow, e.g. after a migration cut-over
    /// re-homed it to a new instance. With `notify_if_idle`, fires the idle
    /// callback when this was the last flow of its (service, cluster) pair
    /// -- the old instance just lost its last user and may scale down.
    bool forget_flow(net::Ipv4 client_ip, const net::ServiceAddress& service,
                     bool notify_if_idle);

    // ------------------------------------------------------ bulk admission
    /// Admit `count` flows into the (service, cluster) fluid cohort as of
    /// now() -- equivalent to `count` memorize() calls of flows that are
    /// never individually recalled, at O(1) cost: cohort counters plus one
    /// run-length expiry drain.
    void admit_fluid(std::string_view service_name, std::string_view cluster,
                     std::uint64_t count);

    /// Live anonymous cohort members, total and per cohort.
    [[nodiscard]] std::uint64_t fluid_flows() const { return fluid_anonymous_; }
    [[nodiscard]] std::uint64_t fluid_flows(std::string_view service_name,
                                            std::string_view cluster) const;

    /// Number of live memorized flows, pool records and cohort members.
    [[nodiscard]] std::size_t size() const {
        return pool_.size() + static_cast<std::size_t>(fluid_anonymous_);
    }

    /// Live flows currently referencing `service_name` (across all
    /// clusters). O(1): answered from the maintained counter.
    [[nodiscard]] std::size_t flows_for_service(std::string_view service_name) const;

    /// Live flows referencing `service_name` served by `cluster`. Idle
    /// detection is per (service, cluster): the same service may be active
    /// on one cluster while its instance on another has gone idle. O(1).
    [[nodiscard]] std::size_t flows_for_service(std::string_view service_name,
                                                std::string_view cluster) const;

    /// Fired when the last flow of a service expires -- the hook the
    /// controller uses to scale idle services down.
    void set_idle_service_callback(IdleServiceCallback cb) { idle_cb_ = std::move(cb); }

    /// Expire stale flows now (also runs periodically). Returns expired count.
    std::size_t expire();

    /// Visit every live flow (materialized view). Order is unspecified but
    /// deterministic for a given operation history.
    void for_each(const std::function<void(const MemorizedFlow&)>& fn) const;

    /// Pre-size the table for `flows` entries (no-op if already larger).
    void reserve(std::size_t flows);

    [[nodiscard]] std::uint64_t hits() const { return hits_; }
    [[nodiscard]] std::uint64_t misses() const { return misses_; }

    /// The interning table behind service/cluster names (diagnostics).
    [[nodiscard]] const sim::SymbolTable& symbols() const { return symbols_; }

private:
    /// Packed per-flow record; client ip and service address live in the key.
    struct FlowRec {
        sim::SymbolId service = sim::kInvalidSymbol;
        sim::SymbolId cluster = sim::kInvalidSymbol;
        net::NodeId instance_node;
        std::uint16_t instance_port = 0;
        sim::SimTime created;
        sim::SimTime last_used;
        /// Expiry bucket this flow is currently filed under (0 = unfiled).
        /// Stale filings — the flow was touched, re-memorized or its key
        /// reused since — are detected by comparing against this field when
        /// the bucket fires.
        std::uint64_t expiry_bucket = 0;
    };

    using Key64 = std::uint64_t;

    static Key64 pack_key(std::uint32_t client_ip, std::uint32_t address_id) {
        return (Key64{client_ip} << 32) | address_id;
    }
    static std::size_t hash_key(Key64 key) {
        // SplitMix64 finalizer: cheap, full-avalanche mix for the packed key.
        key ^= key >> 30;
        key *= 0xbf58476d1ce4e5b9ULL;
        key ^= key >> 27;
        key *= 0x94d049bb133111ebULL;
        key ^= key >> 31;
        return static_cast<std::size_t>(key);
    }
    static Key64 pack_pair(sim::SymbolId service, sim::SymbolId cluster) {
        return (Key64{service} << 32) | cluster;
    }

    /// One live flow in the dense pool; `slot` back-references the probe
    /// array so swap-removal can redirect the moved entry's slot in O(1).
    struct Entry {
        Key64 key = 0;
        FlowRec rec;
        std::uint32_t slot = 0;
    };
    static_assert(sizeof(Entry) == 56, "pool entry grew: re-check the layout");

    [[nodiscard]] std::uint32_t intern_address(const net::ServiceAddress& address);
    [[nodiscard]] std::optional<std::uint32_t>
    find_address(const net::ServiceAddress& address) const;

    /// Slot holding `key`, or the insertion slot if absent.
    [[nodiscard]] std::size_t probe(Key64 key) const;
    [[nodiscard]] std::size_t find_slot(Key64 key) const;  ///< npos if absent
    void grow(std::size_t min_capacity);
    void insert(Key64 key, const FlowRec& rec);
    void erase_entry(std::size_t index);  ///< pool index; swap-removes
    void client_index_add(Key64 key);
    void client_index_remove(Key64 key);

    void bump_counters(const FlowRec& rec, std::int64_t delta);
    /// Fused-counter bulk update for anonymous cohort members.
    void bump_counters_by(sim::SymbolId service, sim::SymbolId cluster,
                          std::uint64_t count, bool add);
    [[nodiscard]] MemorizedFlow materialize(Key64 key, const FlowRec& rec) const;

    /// Quantized expiry bucket whose firing instant (bucket * scan_period)
    /// is the first tick at or after `deadline`.
    [[nodiscard]] std::uint64_t bucket_for(sim::SimTime deadline) const;
    /// File the flow under its current deadline's bucket, scheduling the
    /// bucket's kernel event if this is its first occupant.
    void file_expiry(Key64 key, FlowRec& rec);
    /// File a run of `count` anonymous cohort flows admitted now() under
    /// their deadline bucket (merged into the bucket's last item when it is
    /// a drain for the same cohort).
    void file_fluid_expiry(Key64 pair, std::uint64_t count);
    /// Expire/re-file everything filed under `bucket` (the bucket's event).
    void fire_bucket(std::uint64_t bucket);
    /// Shared tail of fire_bucket()/expire(): idle notifications + metrics.
    void finish_expiry(const std::vector<Key64>& expired_pairs, std::size_t removed);

    static constexpr std::size_t kNpos = ~std::size_t{0};
    /// Tag-array sentinels; key tags are 7-bit (0..127) and can't collide.
    static constexpr std::uint8_t kEmptyTag = 0xFF;
    static constexpr std::uint8_t kTombstoneTag = 0xFE;
    /// Cap on pool indices so the table-full check has a concrete bound.
    static constexpr std::uint32_t kMaxFlows = 0xFFFFFFFEu;
    /// Probe slots per chunk (one cache line).
    static constexpr std::size_t kChunkSlots = 8;

    /// One cache line of probe metadata: 8 classification tags and the 8
    /// matching pool indices. A probe step reads the tag and -- on a match,
    /// or to insert -- the index from the *same* line, so each step costs
    /// one random cache line instead of the two a split tag-array/index-array
    /// layout would touch.
    struct alignas(64) Chunk {
        std::array<std::uint8_t, kChunkSlots> tags;
        std::array<std::uint32_t, kChunkSlots> indices;
    };
    static_assert(sizeof(Chunk) == 64);

    /// All-empty chunk (fill value for a fresh probe array).
    static constexpr Chunk kEmptyChunk{{kEmptyTag, kEmptyTag, kEmptyTag,
                                        kEmptyTag, kEmptyTag, kEmptyTag,
                                        kEmptyTag, kEmptyTag},
                                       {}};

    /// Key tag stored in the byte array: hash bits *not* used for the probe
    /// position (position uses the low bits), so slot collisions and tag
    /// collisions are independent.
    static std::uint8_t tag_of(Key64 key) {
        return static_cast<std::uint8_t>((hash_key(key) >> 57) & 0x7F);
    }

    sim::Simulation& sim_;
    Config config_;

    /// Tag of probe slot `slot` (empty / tombstone / 7-bit key tag).
    [[nodiscard]] std::uint8_t& tag_at(std::size_t slot) {
        return chunks_[slot / kChunkSlots].tags[slot % kChunkSlots];
    }
    [[nodiscard]] std::uint8_t tag_at(std::size_t slot) const {
        return chunks_[slot / kChunkSlots].tags[slot % kChunkSlots];
    }
    /// Pool index of probe slot `slot`; meaningful only under a key tag.
    [[nodiscard]] std::uint32_t& index_at(std::size_t slot) {
        return chunks_[slot / kChunkSlots].indices[slot % kChunkSlots];
    }
    [[nodiscard]] std::uint32_t index_at(std::size_t slot) const {
        return chunks_[slot / kChunkSlots].indices[slot % kChunkSlots];
    }
    /// Probe-array capacity in slots (power of two).
    [[nodiscard]] std::size_t capacity() const {
        return chunks_.size() * kChunkSlots;
    }

    // Chunked probe metadata over a dense entry pool: chunks_ holds the
    // per-slot tags and pool indices (see Chunk), pool_ the packed records.
    std::vector<Chunk> chunks_;
    std::vector<Entry> pool_;
    std::size_t tombstones_ = 0;

    // One-entry miss cache: the packet-in hot path is recall() miss followed
    // immediately by memorize() of the same key, so recall() remembers the
    // insertion slot its probe already found and insert() reuses it instead
    // of walking the chain again. Invalidated by every probe-array mutation.
    Key64 pending_key_ = 0;
    std::size_t pending_slot_ = kNpos;

    // Identifier interning: names via the symbol table, service addresses
    // via a dense side index so they pack into the 64-bit key.
    sim::SymbolTable symbols_;
    std::unordered_map<net::ServiceAddress, std::uint32_t> address_ids_;
    std::vector<net::ServiceAddress> addresses_;

    // Live-flow counters maintained on every insert/erase; the O(1) answers
    // behind flows_for_service() and expire()'s idle detection.
    std::unordered_map<Key64, std::size_t> pair_counts_;
    std::unordered_map<sim::SymbolId, std::size_t> service_counts_;

    /// Per-client live keys (track_clients only): client ip value -> keys.
    /// Entries are swap-removed; the map drops a client when its last flow
    /// goes.
    std::unordered_map<std::uint32_t, std::vector<Key64>> client_keys_;

    /// One filed expiry: a pool flow key (count == 0), or a run of `count`
    /// anonymous cohort flows keyed by their (service, cluster) pair. Runs
    /// sit in the same vector as keys, in filing order, so a bucket's sweep
    /// emits idle notifications in the order per-flow records would have.
    struct ExpiryItem {
        Key64 key = 0;
        std::uint64_t count = 0;
    };

    /// Flows awaiting expiry, grouped by quantized deadline. One daemon
    /// kernel event per non-empty bucket (cancelled on destruction).
    struct ExpiryBucket {
        std::vector<ExpiryItem> items;
        sim::EventHandle event;
    };
    std::unordered_map<std::uint64_t, ExpiryBucket> expiry_buckets_;

    /// The bucket's node (cached; created -- and its kernel event scheduled
    /// -- on first occupancy).
    [[nodiscard]] ExpiryBucket& bucket_node(std::uint64_t bucket);

    // One-entry bucket cache: consecutive inserts file under the same
    // deadline bucket for a whole scan period, so keep the last bucket's
    // node address (stable -- unordered_map nodes never move) and skip the
    // map lookup. Cleared when that bucket fires.
    std::uint64_t cached_bucket_ = 0;
    ExpiryBucket* cached_bucket_node_ = nullptr;

    // ------------------------------------------------------- fluid cohorts
    /// Per-(service, cluster) population of anonymous (admit_fluid) flows.
    struct FluidCohort {
        sim::SymbolId service = sim::kInvalidSymbol;
        sim::SymbolId cluster = sim::kInvalidSymbol;
        std::uint64_t anonymous_live = 0;
        /// Anonymous members removed out-of-band (forget_service) whose
        /// filed expiry drains are now stale; drains cancel against this
        /// in filing (FIFO) order before removing live members.
        std::uint64_t anonymous_forgotten = 0;
    };

    [[nodiscard]] FluidCohort& cohort_for(sim::SymbolId service,
                                          sim::SymbolId cluster);
    /// Expire up to `count` anonymous members of cohort `pair` (one filed
    /// drain run), feeding the shared idle-notification dedup.
    void drain_fluid(Key64 pair, std::uint64_t count,
                     std::vector<Key64>& expired_pairs,
                     std::unordered_map<Key64, bool>& seen,
                     std::size_t& removed);

    std::unordered_map<Key64, FluidCohort> cohorts_;
    std::uint64_t fluid_anonymous_ = 0;

    IdleServiceCallback idle_cb_;
    std::uint64_t hits_ = 0;
    std::uint64_t misses_ = 0;
    mutable MemorizedFlow peek_scratch_;
};

} // namespace tedge::sdn

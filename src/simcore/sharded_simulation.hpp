// ShardedSimulation: conservative parallel discrete-event execution of
// independent Domains, deterministic at any shard count, thread count, and
// synchronization mode.
//
// ## Execution model
//
// Two coordinators are available (Options::sync), both built on the same
// per-domain primitives and producing bit-identical runs:
//
//  * kBarrier — global barrier rounds. Each round computes the earliest
//    pending work time across every domain, `next`, and executes all domains
//    up to `next + lookahead` (the minimum channel lookahead), then delivers
//    all cross-domain messages at the barrier. Simple, fully synchronous,
//    kept as the differential-testing oracle.
//  * kChannel (default) — asynchronous channel clocks (Chandy-Misra-Bryant
//    null messages) on a mostly lock-free synchronization plane (DESIGN
//    §8.7). Every domain continuously publishes a *horizon* — a lower bound
//    on the timestamp of anything it will still execute (and therefore
//    send + channel lookahead later). A domain's safe execution bound is the
//    minimum EIT (earliest input time) over its in-channels,
//
//        safe_end(d) = min over channels (s -> d) of horizon(s) + L(s, d)
//
//    so a domain blocks only on its actual upstream channels — unrelated
//    domains never wait on each other, and a domain with no in-channels runs
//    its entire workload in one window. Horizon publications that carry no
//    payload are the null messages; strictly positive channel lookaheads
//    make the horizon fixpoint climb around any channel cycle, which is the
//    classic deadlock-freedom argument. Cross-domain messages travel in
//    per-(src, dst, window) batches: one ring push and one wakeup per batch,
//    not per message. Horizons are monotone atomics published per directed
//    channel (release) and read into EIT without any lock (acquire); message
//    batches travel through bounded SPSC mailbox rings, one per directed
//    channel (the producer is the lane owning src, the consumer the lane
//    owning dst — both fixed for the run); lanes track a per-domain dirty
//    set and spin-then-park on a per-lane Eventcount. With a positive
//    Options::horizon_grain, payload-free horizon advances are withheld and
//    a quiescence-time lift publishes the climb's fixpoint in one shot; an
//    EIT-blocked domain pokes exactly its laggard upstream (a *demand*)
//    instead of all upstreams broadcasting continuously. The sync mutex
//    survives only on the quiescence slow path (every lane idle).
//
// ## Determinism argument
//
//  * Within a domain, execution is the ordinary serial kernel: events run in
//    (timestamp, insertion seq) order.
//  * Cross-domain messages are staged into the destination's inbox — a
//    (timestamp, source id, sequence) min-heap, a total order independent of
//    execution interleaving — and inserted into the destination queue
//    immediately before the destination executes its first event at or past
//    the message timestamp. Conservative safety guarantees every message
//    with timestamp <= t has arrived before the domain may execute at t, so
//    the insertion point is well-defined and *window-structure independent*:
//    the pop sequence is a pure merge of the local schedule order and the
//    message order, the same under barrier rounds, channel windows, or any
//    thread interleaving.
//  * Daemon housekeeping is gated by the *fence*: the largest user-event
//    timestamp scheduled anywhere in the run so far (a monotone quantity
//    with a schedule-independent final value). A daemon event executes iff
//    its timestamp is <= the fence — run()'s "housekeeping rides along while
//    user work remains" semantics, restated without reference to rounds.
//    When a daemon's eligibility is still undecided the domain blocks; at
//    global quiescence no user work remains anywhere, the fence is final,
//    and every pending daemon past it is legitimately left unexecuted.
//
// Hence the whole run — event counts, per-domain clocks, metric values,
// trace exports, log buffers — is bit-identical across sync modes, shard
// counts, and worker counts. With a single domain, run()/run_until()
// reproduce Simulation::run()/run_until() exactly (same pop sequence, same
// daemon-event semantics, same final clock).
//
// ## Channels
//
// Channel lookaheads default to a full mesh at Options::lookahead (the PR-5
// behaviour). set_channel() — typically fed from
// net::TopologyPartition::channels(), i.e. per-directed-pair minimum
// cut-link latencies — replaces the mesh with the real channel graph:
// posting on a pair with no channel throws, per-pair lookaheads can far
// exceed the global minimum, and absent channels mean absent waiting.
#pragma once

#include <atomic>
#include <cstdint>
#include <exception>
#include <iosfwd>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "simcore/domain.hpp"
#include "simcore/spsc_ring.hpp"
#include "simcore/time.hpp"

namespace tedge::sim {

class ThreadPool;
class Eventcount;

/// Coordinator algorithm selector (Options::sync, TEDGE_SYNC).
enum class SyncMode : std::uint8_t {
    kBarrier,  ///< global barrier rounds (the differential-testing oracle)
    kChannel,  ///< channel clocks on the lock-free plane (default)
};

class ShardedSimulation {
public:
    struct Options {
        /// Run seed; per-domain streams derive from it and the domain id.
        std::uint64_t seed = 42;
        /// Event-queue backend for every domain's kernel.
        QueueBackend backend = EventQueue::default_backend();
        /// Minimum cross-domain message latency of the implicit full-mesh
        /// channel graph used when no explicit channels are set. post()
        /// requires message timestamps >= sender now + channel lookahead.
        /// The default (SimTime::max) declares "no cross-domain messaging":
        /// windows are unbounded and post() throws. Derive a real value from
        /// the topology partition (net::TopologyPartition::lookahead()), or
        /// better, install per-pair channels (set_channel). Must be positive.
        SimTime lookahead = SimTime::max();
        /// Execution lanes. Domains are assigned round-robin by id
        /// (id % shards); each lane runs its domains' windows sequentially
        /// in id order. 0 = one lane per domain. shards=1 executes inline on
        /// the calling thread with zero coordination overhead.
        std::size_t shards = 0;
        /// Worker threads (0 = one per lane, capped by the hardware). Only
        /// affects wall-clock speed, never results.
        std::size_t workers = 0;
        /// Coordinator algorithm; results are identical under both modes.
        /// Defaults from TEDGE_SYNC ("barrier" or "channel"), else kChannel.
        SyncMode sync = default_sync();
        /// Null-message suppression switch of the channel coordinator. 0
        /// publishes every horizon advance (the incremental climb). Any
        /// positive value withholds payload-free advances — a pass that
        /// executed no event and flushed no batch publishes nothing — and
        /// lets the quiescence-time lift advance every horizon to its
        /// fixpoint in one shot; the magnitude is not read. Changes
        /// scheduling pressure only — results are byte-identical at any
        /// grain. Defaults from TEDGE_GRAIN (a non-negative double), else
        /// 0.25.
        double horizon_grain = default_grain();
        /// Pin lane threads to cores (lane i -> core i mod hardware size)
        /// via pthread_setaffinity_np; cores < lanes degrades to sharing
        /// cores, unsupported platforms to a no-op. Defaults from
        /// TEDGE_PIN=1. Only affects wall-clock speed, never results.
        bool pin_lanes = default_pin();
    };

    /// Process-wide default sync mode: kChannel unless TEDGE_SYNC is set.
    /// Throws std::invalid_argument when TEDGE_SYNC is set to anything but
    /// "barrier" or "channel".
    [[nodiscard]] static SyncMode default_sync();
    /// Process-wide default lane pinning: off unless TEDGE_PIN=1.
    [[nodiscard]] static bool default_pin();
    /// Process-wide default suppression grain: TEDGE_GRAIN, else 0.25.
    [[nodiscard]] static double default_grain();

    ShardedSimulation();
    explicit ShardedSimulation(Options options);
    ~ShardedSimulation();

    ShardedSimulation(const ShardedSimulation&) = delete;
    ShardedSimulation& operator=(const ShardedSimulation&) = delete;

    /// Create the next domain (ids are assigned 0, 1, 2, ... in creation
    /// order). Add all domains before the first run call. The reference is
    /// stable for the coordinator's lifetime.
    Domain& add_domain(std::string name);

    [[nodiscard]] Domain& domain(DomainId id) { return *domains_.at(id); }
    [[nodiscard]] const Domain& domain(DomainId id) const { return *domains_.at(id); }
    [[nodiscard]] std::size_t domain_count() const { return domains_.size(); }

    /// Declare a directed channel src -> dst with the given conservative
    /// lookahead (must be positive; src/dst need not exist yet). The first
    /// call switches the coordinator from the implicit Options::lookahead
    /// full mesh to the explicit channel graph: posting on a pair with no
    /// channel throws, and in channel-sync mode a domain waits only on its
    /// declared in-channels. Typically fed from
    /// net::TopologyPartition::channels(). Call before the first run.
    void set_channel(DomainId src, DomainId dst, SimTime lookahead);

    /// True once set_channel() has installed an explicit channel graph.
    [[nodiscard]] bool has_explicit_channels() const { return !channels_.empty(); }

    /// Lookahead of the directed channel src -> dst: the explicit channel's,
    /// or Options::lookahead under the implicit full mesh. Throws
    /// std::logic_error for a pair with no explicit channel.
    [[nodiscard]] SimTime channel_lookahead(DomainId src, DomainId dst) const;

    /// Minimum channel lookahead (the global conservative window bound).
    [[nodiscard]] SimTime lookahead() const;
    void set_lookahead(SimTime lookahead);

    [[nodiscard]] SyncMode sync_mode() const { return options_.sync; }

    [[nodiscard]] std::size_t shard_count() const;

    /// Run until no user events remain in any domain and no daemon work at
    /// or before the fence (the largest user timestamp ever scheduled)
    /// remains; with one domain this is exactly Simulation::run(). Returns
    /// the number of events executed across all domains.
    std::uint64_t run();

    /// Run every domain up to and including `deadline` (daemon events too)
    /// and advance all domain clocks to `deadline`, like
    /// Simulation::run_until on each. Returns events executed.
    std::uint64_t run_until(SimTime deadline);

    /// Latest domain clock (the natural anchor for follow-up deadlines).
    [[nodiscard]] SimTime now() const;

    /// Total events executed across all domains so far.
    [[nodiscard]] std::uint64_t events_executed() const;

    /// Synchronization work so far: barrier mode counts global rounds,
    /// channel mode counts per-domain windows attempted. Deterministic with
    /// a single worker; multi-worker channel runs may split windows
    /// differently (results never change).
    [[nodiscard]] std::uint64_t rounds() const { return rounds_; }

    /// Cross-domain messages inserted into destination queues so far.
    [[nodiscard]] std::uint64_t messages_delivered() const;

    /// Pure null messages so far: horizon publications that advanced a
    /// channel clock without carrying any message batch or executed event
    /// (channel mode only; barrier mode has none). Deterministic with a
    /// single worker — the liveness tests bound it.
    [[nodiscard]] std::uint64_t null_messages() const { return null_messages_; }

    /// Horizon advances withheld by the suppression grain so far (channel
    /// mode only). Deterministic with a single worker.
    [[nodiscard]] std::uint64_t suppressed_publications() const {
        return suppressed_publications_;
    }

    /// Demand pulls issued by EIT-blocked domains so far (channel mode
    /// only). Deterministic with a single worker.
    [[nodiscard]] std::uint64_t demand_requests() const { return demand_requests_; }

    /// Lane gate wakeups so far (channel mode only): returns from
    /// the per-lane Eventcount, spin or park alike. Wall-clock-dependent
    /// with multiple workers.
    [[nodiscard]] std::uint64_t lane_wakeups() const { return wakeups_; }

    /// Per-lane accounting of the most recent run call (channel mode;
    /// empty after barrier runs). The *_ns members are wall-clock quantities
    /// — reporting only, never part of simulation results.
    struct LaneStat {
        std::uint64_t busy_ns = 0;     ///< executing domain windows
        std::uint64_t blocked_ns = 0;  ///< waiting for upstream horizons
        std::uint64_t windows = 0;     ///< windows attempted
        std::uint64_t parks = 0;       ///< gate waits that hit the condvar slow path
        std::uint64_t parked_ns = 0;   ///< wall-clock spent parked on the condvar
        std::uint64_t wakeups = 0;     ///< returns from the lane gate
        std::uint64_t nulls = 0;       ///< pure null publications by this lane
        std::uint64_t suppressed = 0;  ///< advances withheld by the grain
        std::uint64_t demands = 0;     ///< demand pulls issued by this lane
    };
    [[nodiscard]] const std::vector<LaneStat>& lane_stats() const {
        return lane_stats_;
    }

    /// Deterministic merged metrics: per-domain registries folded in domain
    /// order (counters sum, same-shape histograms merge), then dumped
    /// name-ordered.
    void dump_metrics(std::ostream& os) const;
    [[nodiscard]] std::string dump_metrics() const;

    /// Deterministic merged Chrome trace: each domain's tracer exports under
    /// pid = domain id, spans in creation order, domains in id order.
    void write_chrome_trace(std::ostream& os) const;

    /// When set, every domain's log buffer is flushed to `os` in domain
    /// order at the end of each run call — the deterministic multi-domain
    /// replacement for the shared stderr sink. Flushing only at run
    /// boundaries (never mid-run) is what makes the flushed byte stream
    /// identical across sync modes: barrier rounds and channel windows
    /// interleave domains differently, but each domain's buffer content and
    /// the domain flush order do not depend on that.
    void set_log_output(std::ostream* os) { log_output_ = os; }

    /// Flush all domain log buffers in domain order now.
    void flush_logs(std::ostream& os);

private:
    friend class Domain;

    enum class Mode : std::uint8_t { kRun, kRunUntil };

    static std::uint64_t channel_key(DomainId src, DomainId dst) {
        return (static_cast<std::uint64_t>(src) << 32) | dst;
    }

    std::uint64_t drive(Mode mode, SimTime deadline);
    void drive_single(Mode mode, SimTime deadline);
    void drive_barrier(Mode mode, SimTime deadline);
    void drive_channel(Mode mode, SimTime deadline);
    void channel_lane(std::size_t lane, std::size_t nlanes, Mode mode,
                      SimTime deadline);
    void build_in_channels();
    void build_channel_plane();
    void drain_staged_inboxes();
    /// Quiescence scan of the lock-free plane. Call with sync_mu_ held and
    /// every lane registered idle. Not const: any domain that still owes
    /// work is re-marked dirty (healing suppressed or raced wakeups).
    [[nodiscard]] bool quiescent_lockfree(Mode mode, SimTime deadline);
    [[nodiscard]] bool plane_clean() const;
    [[nodiscard]] SimTime compute_fence() const;
    void flush_logs_if_configured();

    Options options_;
    std::vector<std::unique_ptr<Domain>> domains_;
    std::unique_ptr<ThreadPool> pool_;  ///< barrier-mode lanes
    std::unordered_map<std::uint64_t, SimTime> channels_;
    SimTime min_channel_lookahead_ = SimTime::max();
    /// in_channels_[dst] = (src, lookahead) pairs; built at first drive from
    /// the explicit channel graph or the implicit mesh.
    std::vector<std::vector<std::pair<DomainId, SimTime>>> in_channels_;
    bool in_channels_built_ = false;

    // The channel coordinator's only lock: it guards idle registration and
    // the quiescence scan (the slow path taken when every lane is idle) and
    // the first exception a lane raises.
    std::mutex sync_mu_;
    std::exception_ptr lane_error_;

    // ---- lock-free channel plane (SyncMode::kChannel; DESIGN §8.7) ----
    //
    // One ChannelEdge + ChannelClock + SPSC mailbox ring per directed
    // channel. The clock's horizon is published by the lane owning src
    // (release) and read lock-free into EIT(dst) (acquire); the demand flag
    // is the downstream's pull request. dirty_[d] says "domain d's inputs
    // may have advanced — re-examine it"; fence_wait_[d] records the daemon
    // timestamp d is fence-blocked on, so a fence raise wakes exactly the
    // domains it unblocks. All of it is rebuilt/reset at drive start and
    // torn into quiescence under sync_mu_ (the only lock on the whole path).
    struct ChannelEdge {
        DomainId src = 0;
        DomainId dst = 0;
        SimTime lookahead = SimTime::zero();
    };
    struct alignas(64) ChannelClock {
        std::atomic<std::int64_t> horizon{0};  ///< published ns, monotone
        std::atomic<std::uint8_t> demand{0};   ///< downstream pull request
    };
    static constexpr std::uint32_t kNoEdge = 0xffffffffu;
    std::vector<ChannelEdge> edges_;
    std::vector<std::vector<std::uint32_t>> in_edges_;   ///< dst -> edge ids
    std::vector<std::vector<std::uint32_t>> out_edges_;  ///< src -> edge ids
    std::vector<std::uint32_t> edge_of_;  ///< src * n + dst -> edge id
    std::unique_ptr<ChannelClock[]> clocks_;
    std::vector<std::unique_ptr<SpscRing<std::vector<Domain::Message>>>> rings_;
    std::unique_ptr<std::atomic<std::uint8_t>[]> dirty_;
    std::unique_ptr<std::atomic<std::int64_t>[]> fence_wait_;
    std::vector<std::unique_ptr<Eventcount>> gates_;  ///< one per lane
    std::atomic<std::int64_t> fence_ns_{0};
    std::atomic<bool> lf_done_{false};
    std::atomic<std::uint64_t> publications_{0};
    std::size_t idle_lanes_ = 0;  ///< guarded by sync_mu_
    std::uint64_t heal_events_ = 0;  ///< guarded by sync_mu_ (stall detection)
    std::uint64_t heal_pubs_ = 0;    ///< guarded by sync_mu_
    bool plane_built_ = false;

    std::uint64_t rounds_ = 0;
    std::uint64_t null_messages_ = 0;
    std::uint64_t suppressed_publications_ = 0;
    std::uint64_t demand_requests_ = 0;
    std::uint64_t wakeups_ = 0;
    std::vector<LaneStat> lane_stats_;
    std::ostream* log_output_ = nullptr;
    bool running_ = false;
};

} // namespace tedge::sim

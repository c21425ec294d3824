// One shard of a sharded conservative parallel discrete-event simulation.
//
// A Domain is a self-contained simulation partition: it owns its *own*
// virtual clock and event queue (a full Simulation), its own seeded RNG
// stream (derived statelessly from the run seed and the domain's stable id,
// so draws are independent of shard count and thread count), its own
// MetricsRegistry, Tracer, and buffered log sink. Nothing inside a domain is
// shared with any other domain, which is what lets the ShardedSimulation
// coordinator execute domains on different threads without locks.
//
// Cross-domain interaction happens exclusively through post(): a timestamped
// message (timestamp, source domain, per-source sequence) staged into the
// destination domain's inbox — a (timestamp, source id, sequence) min-heap —
// and inserted into its event queue immediately before the destination
// executes its first event at or past the message timestamp. That insertion
// rule is a pure merge of two deterministic sequences (local schedule order
// vs. message order), independent of how execution is windowed, which is what
// lets the barrier and channel-clock coordinators produce bit-identical runs
// at any shard or thread count. The coordinator enforces the conservative
// lookahead contract per directed channel: a message must be timestamped at
// least the channel's lookahead after the sender's current clock.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "simcore/event_queue.hpp"
#include "simcore/logging.hpp"
#include "simcore/metrics_registry.hpp"
#include "simcore/random.hpp"
#include "simcore/simulation.hpp"
#include "simcore/time.hpp"
#include "simcore/tracer.hpp"

namespace tedge::sim {

class ShardedSimulation;

/// Stable identifier of a domain: its creation index within the coordinator.
/// Everything derived from it (RNG stream, message tie-breaks, merge order)
/// depends only on this id, never on which shard or thread executes the
/// domain.
using DomainId = std::uint32_t;

class Domain {
public:
    Domain(const Domain&) = delete;
    Domain& operator=(const Domain&) = delete;

    [[nodiscard]] DomainId id() const { return id_; }
    [[nodiscard]] const std::string& name() const { return name_; }

    /// The domain's private kernel. Components built for this domain take
    /// sim() exactly like they would a standalone Simulation.
    [[nodiscard]] Simulation& sim() { return sim_; }
    [[nodiscard]] const Simulation& sim() const { return sim_; }

    /// Per-domain RNG stream, seeded Rng::stream_seed(run_seed, id()).
    [[nodiscard]] Rng& rng() { return rng_; }

    /// Per-domain metrics. Not attached to sim() by default; call
    /// enable_metrics() to make components report into it. The coordinator
    /// merges all domain registries in id order for a deterministic dump.
    [[nodiscard]] MetricsRegistry& metrics() { return metrics_; }
    [[nodiscard]] const MetricsRegistry& metrics() const { return metrics_; }
    void enable_metrics() { sim_.set_metrics(&metrics_); }

    /// Per-domain tracer (attached to sim(), disabled until enable_tracing).
    [[nodiscard]] Tracer& tracer() { return tracer_; }
    [[nodiscard]] const Tracer& tracer() const { return tracer_; }
    void enable_tracing();

    /// Per-domain buffered log sink; make_logger() binds components to it.
    /// The coordinator flushes buffers in domain order at sync points.
    [[nodiscard]] LogBuffer& log_buffer() { return log_buffer_; }
    [[nodiscard]] Logger make_logger(const std::string& component,
                                     LogLevel level = LogLevel::kWarn);

    /// The coordinator's minimum conservative lookahead over all channels
    /// (the global window bound). SimTime::max() when no finite lookahead
    /// was set.
    [[nodiscard]] SimTime lookahead() const;

    /// Conservative lookahead of the directed channel id() -> dst: the
    /// smallest latency a message from this domain to `dst` can have. With
    /// explicit channels (ShardedSimulation::set_channel, typically derived
    /// from TopologyPartition cut links) this is the per-pair bound — often
    /// much larger than the global minimum, letting senders on slow links
    /// timestamp later and grant receivers wider windows. Throws
    /// std::logic_error when no such channel exists.
    [[nodiscard]] SimTime lookahead_to(DomainId dst) const;

    /// Number of domains in the coordinator (valid post() destinations).
    [[nodiscard]] std::size_t domain_count() const;

    /// Send a cross-domain message: `cb` runs inside domain `dst` at
    /// absolute (destination) time `at`. Requires at >= sim().now() +
    /// lookahead_to(dst) — the conservative contract that makes windowed
    /// parallel execution safe — and throws std::logic_error otherwise.
    /// Messages become user events in the destination unless `daemon`.
    /// Must be called from the sending domain's own execution (its event
    /// callbacks) — outboxes are flushed by the lane that owns the sender.
    void post(DomainId dst, SimTime at, EventQueue::Callback cb,
              bool daemon = false);

    /// Events executed by this domain so far.
    [[nodiscard]] std::uint64_t events_executed() const {
        return sim_.events_executed();
    }

private:
    friend class ShardedSimulation;

    struct Message {
        SimTime at;
        DomainId src = 0;
        DomainId dst = 0;
        std::uint64_t seq = 0;  ///< per-source send order
        EventQueue::Callback fn;
        bool daemon = false;
    };

    Domain(ShardedSimulation& coordinator, DomainId id, std::string name,
           QueueBackend backend, std::uint64_t run_seed);

    /// (at, src, seq) descending — std::push_heap/pop_heap with this
    /// comparator keep inbox_.front() the next message in merge order.
    static bool message_after(const Message& a, const Message& b) {
        if (a.at != b.at) return a.at > b.at;
        if (a.src != b.src) return a.src > b.src;
        return a.seq > b.seq;
    }

    /// Stage an inbound message (coordinator only; serialized by the barrier
    /// or — in the channel coordinator — by the fact that only the owning
    /// lane touches the inbox).
    void stage_inbound(Message&& m);

    /// Stage a whole mailbox batch (channel coordinator: one ring pop per
    /// batch). The vector is cleared but keeps its capacity, so handing it
    /// back to the SPSC ring recycles the allocation.
    void stage_inbound_batch(std::vector<Message>& batch);

    /// Timestamp of the earliest staged message; max() when none.
    [[nodiscard]] SimTime inbox_next_time() const {
        return inbox_.empty() ? SimTime::max() : inbox_.front().at;
    }

    /// Earliest thing this domain could execute: min over its queue and its
    /// staged inbox; max() when fully drained.
    [[nodiscard]] SimTime next_work_time() const;

    /// Pending user events, in the queue or staged in the inbox.
    [[nodiscard]] bool has_user_work() const {
        return sim_.has_user_events() || inbox_user_ > 0;
    }

    /// Anything left that run() semantics oblige us to execute: user work,
    /// or daemon work at or before the fence.
    [[nodiscard]] bool has_eligible_work(SimTime fence) const;

    /// This domain's contribution to the coordinator's daemon fence: the
    /// largest user-event timestamp it has scheduled locally or posted.
    [[nodiscard]] SimTime user_horizon() const;

    /// The shared execution primitive of both coordinators: execute events
    /// strictly before `end`, inserting staged messages into the queue
    /// immediately before the first pop at or past their timestamp, daemons
    /// fenced at `fence`. Returns events executed.
    std::uint64_t advance_window(SimTime end, SimTime fence);

    ShardedSimulation* coordinator_;
    DomainId id_;
    std::string name_;
    Simulation sim_;
    Rng rng_;
    MetricsRegistry metrics_;
    Tracer tracer_;
    LogBuffer log_buffer_;
    std::vector<Message> outbox_;  ///< drained by the owning lane per window
    std::vector<Message> inbox_;   ///< staged inbound, (at, src, seq) min-heap
    std::size_t inbox_user_ = 0;   ///< staged non-daemon messages
    std::uint64_t next_send_seq_ = 0;
    std::uint64_t delivered_ = 0;  ///< messages inserted into the queue
    SimTime posted_user_horizon_ = SimTime::zero();
};

} // namespace tedge::sim

#include "simcore/sharded_simulation.hpp"

#include <algorithm>
#include <chrono>
#include <limits>
#include <ostream>
#include <sstream>
#include <stdexcept>
#include <thread>
#include <utility>

#include "simcore/thread_pool.hpp"

namespace tedge::sim {

namespace {

/// `a + b` clamped to SimTime::max() (infinite-lookahead windows).
SimTime saturating_add(SimTime a, SimTime b) {
    if (b == SimTime::max() || a > SimTime::max() - b) return SimTime::max();
    return a + b;
}

std::uint64_t elapsed_ns(std::chrono::steady_clock::time_point t0,
                         std::chrono::steady_clock::time_point t1) {
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(t1 - t0).count());
}

} // namespace

ShardedSimulation::ShardedSimulation() : ShardedSimulation(Options{}) {}

ShardedSimulation::ShardedSimulation(Options options) : options_(options) {
    if (options_.lookahead <= SimTime::zero()) {
        throw std::invalid_argument(
            "ShardedSimulation: lookahead must be positive (zero lookahead "
            "cannot make conservative progress)");
    }
}

ShardedSimulation::~ShardedSimulation() = default;

Domain& ShardedSimulation::add_domain(std::string name) {
    if (running_) {
        throw std::logic_error("ShardedSimulation: add_domain during a run");
    }
    const auto id = static_cast<DomainId>(domains_.size());
    domains_.push_back(std::unique_ptr<Domain>(new Domain(
        *this, id, std::move(name), options_.seed)));
    return *domains_.back();
}

void ShardedSimulation::set_channel(DomainId src, DomainId dst, SimTime lookahead) {
    if (running_) {
        throw std::logic_error("ShardedSimulation: set_channel during a run");
    }
    if (lookahead <= SimTime::zero() || lookahead == SimTime::max()) {
        throw std::invalid_argument(
            "ShardedSimulation: channel lookahead must be positive and finite");
    }
    channels_[channel_key(src, dst)] = lookahead;
    min_channel_lookahead_ = std::min(min_channel_lookahead_, lookahead);
    in_channels_built_ = false;
    plane_built_ = false;
}

SimTime ShardedSimulation::channel_lookahead(DomainId src, DomainId dst) const {
    if (channels_.empty()) return options_.lookahead;
    const auto it = channels_.find(channel_key(src, dst));
    if (it == channels_.end()) {
        throw std::logic_error(
            "ShardedSimulation: no channel between these domains (explicit "
            "channels are installed; declare one with set_channel)");
    }
    return it->second;
}

SimTime ShardedSimulation::lookahead() const {
    return channels_.empty() ? options_.lookahead : min_channel_lookahead_;
}

void ShardedSimulation::set_lookahead(SimTime lookahead) {
    if (lookahead <= SimTime::zero()) {
        throw std::invalid_argument("ShardedSimulation: lookahead must be positive");
    }
    options_.lookahead = lookahead;
}

std::size_t ShardedSimulation::shard_count() const {
    if (domains_.empty()) return 0;
    const std::size_t lanes =
        options_.shards == 0 ? domains_.size() : options_.shards;
    return std::min(lanes, domains_.size());
}

std::uint64_t ShardedSimulation::run() { return drive(Mode::kRun, SimTime::max()); }

std::uint64_t ShardedSimulation::run_until(SimTime deadline) {
    return drive(Mode::kRunUntil, deadline);
}

SimTime ShardedSimulation::now() const {
    SimTime latest = SimTime::zero();
    for (const auto& d : domains_) latest = std::max(latest, d->sim().now());
    return latest;
}

std::uint64_t ShardedSimulation::events_executed() const {
    std::uint64_t total = 0;
    for (const auto& d : domains_) total += d->sim().events_executed();
    return total;
}

std::uint64_t ShardedSimulation::messages_delivered() const {
    std::uint64_t total = 0;
    for (const auto& d : domains_) total += d->delivered_;
    return total;
}

SimTime ShardedSimulation::compute_fence() const {
    SimTime fence = SimTime::zero();
    for (const auto& d : domains_) fence = std::max(fence, d->user_horizon());
    return fence;
}

void ShardedSimulation::build_in_channels() {
    if (in_channels_built_ && in_channels_.size() == domains_.size()) return;
    in_channels_.assign(domains_.size(), {});
    if (channels_.empty()) {
        // Implicit full mesh at the global lookahead. SimTime::max() means
        // "no cross-domain messaging": nothing can ever arrive, so domains
        // have no in-channels and run unbounded windows.
        if (options_.lookahead != SimTime::max()) {
            for (DomainId dst = 0; dst < domains_.size(); ++dst) {
                for (DomainId src = 0; src < domains_.size(); ++src) {
                    if (src == dst) continue;
                    in_channels_[dst].emplace_back(src, options_.lookahead);
                }
            }
        }
    } else {
        for (const auto& [key, lookahead] : channels_) {
            const auto src = static_cast<DomainId>(key >> 32);
            const auto dst = static_cast<DomainId>(key & 0xffffffffu);
            // Self-channels never gate anything: self-posts are inserted at
            // post time (Domain::post), so a domain does not wait on itself.
            if (src == dst) continue;
            if (src >= domains_.size() || dst >= domains_.size()) continue;
            in_channels_[dst].emplace_back(src, lookahead);
        }
        for (auto& in : in_channels_) std::sort(in.begin(), in.end());
    }
    in_channels_built_ = true;
}

void ShardedSimulation::drain_staged_inboxes() {
    // Mailbox rings are always drained by normal channel-mode termination
    // (quiescence requires them empty); this only matters after an
    // exceptional run.
    if (plane_built_) {
        std::vector<Domain::Message> batch;
        for (std::size_t e = 0; e < edges_.size(); ++e) {
            while (rings_[e]->try_pop(batch)) {
                domains_[edges_[e].dst]->stage_inbound_batch(batch);
            }
        }
    }
}

std::uint64_t ShardedSimulation::drive(Mode mode, SimTime deadline) {
    if (domains_.empty()) return 0;
    running_ = true;
    const std::uint64_t executed_before = events_executed();
    try {
        if (domains_.size() == 1) {
            drive_single(mode, deadline);
        } else if (options_.sync == SyncMode::kBarrier ||
                   (mode == Mode::kRunUntil && deadline == SimTime::max())) {
            // run_until(max) has no finite quiescence point for the channel
            // horizon fixpoint; the barrier driver handles it directly (both
            // coordinators produce identical results by construction).
            drive_barrier(mode, deadline);
        } else {
            drive_channel(mode, deadline);
        }
    } catch (...) {
        running_ = false;
        throw;
    }
    running_ = false;
    flush_logs_if_configured();
    return events_executed() - executed_before;
}

// With a single domain the coordinator is the serial kernel: every post is a
// self-post, which Domain::post inserts at post time, so the outbox stays
// empty. Windowed execution buys nothing and the old (pre-channel) windowing
// is kept verbatim so single-domain runs stay bit-identical to
// Simulation::run()/run_until().
void ShardedSimulation::drive_single(Mode mode, SimTime deadline) {
    Domain& d = *domains_[0];
    for (;;) {
        if (mode == Mode::kRun && !d.sim().has_user_events()) break;
        if (!d.sim().has_pending_events() ||
            (mode == Mode::kRunUntil && d.sim().next_time() > deadline)) {
            if (mode == Mode::kRunUntil) d.sim().run_until(deadline);
            break;
        }
        SimTime window_end = saturating_add(d.sim().next_time(), lookahead());
        if (mode == Mode::kRunUntil) {
            // Events at exactly `deadline` still execute: the window is
            // half-open, so end one tick past it.
            window_end = std::min(window_end, saturating_add(deadline, nanoseconds(1)));
        }
        d.sim().run_window(window_end, mode == Mode::kRun);
        ++rounds_;
    }
}

void ShardedSimulation::drive_barrier(Mode mode, SimTime deadline) {
    const std::size_t lanes = shard_count();
    if (lanes > 1 && pool_ == nullptr) {
        std::size_t workers = options_.workers;
        if (workers == 0) {
            workers = std::min<std::size_t>(
                lanes, std::max(1u, std::thread::hardware_concurrency()));
        }
        pool_ = std::make_unique<ThreadPool>(workers);
    }
    // A channel-mode run that died exceptionally can leave batches in the
    // mailbox rings, and messages posted outside any window (before the
    // first run, or between runs) sit in their sender's outbox; merge both
    // before the eligibility scan so a run whose only work arrives by mail
    // still starts.
    drain_staged_inboxes();
    for (auto& d : domains_) {
        for (auto& m : d->outbox_) domains_[m.dst]->stage_inbound(std::move(m));
        d->outbox_.clear();
    }

    for (;;) {
        // ---- round-start snapshot (deterministic: barrier state only) ----
        const SimTime fence = mode == Mode::kRun ? compute_fence() : SimTime::max();
        if (mode == Mode::kRun) {
            bool any_eligible = false;
            for (const auto& d : domains_) {
                if (d->has_eligible_work(fence)) { any_eligible = true; break; }
            }
            if (!any_eligible) break;
        }

        SimTime next = SimTime::max();
        for (const auto& d : domains_) next = std::min(next, d->next_work_time());
        if (next == SimTime::max() ||
            (mode == Mode::kRunUntil && next > deadline)) {
            if (mode == Mode::kRunUntil) {
                // Nothing left at or before the deadline: advance every
                // clock exactly like Simulation::run_until would.
                for (auto& d : domains_) d->sim().run_until(deadline);
            }
            break;
        }

        SimTime window_end = saturating_add(next, lookahead());
        if (mode == Mode::kRunUntil) {
            window_end = std::min(window_end, saturating_add(deadline, nanoseconds(1)));
        }

        // Each lane owns the domains with id % lanes == lane and runs their
        // sub-windows sequentially in id order; no two lanes ever touch the
        // same domain, so lanes share no mutable state.
        auto run_lane = [&](std::size_t lane) {
            for (std::size_t i = lane; i < domains_.size(); i += lanes) {
                domains_[i]->advance_window(window_end, fence);
            }
        };
        if (lanes <= 1 || pool_ == nullptr || pool_->size() <= 1) {
            // One lane, or one worker (single-core host): dispatching through
            // the pool buys nothing but wakeup latency. Lane order cannot
            // matter -- lanes share no state -- so inline execution is the
            // same run.
            for (std::size_t lane = 0; lane < lanes; ++lane) run_lane(lane);
        } else {
            pool_->parallel_for(lanes, run_lane);
        }
        ++rounds_;

        // Barrier delivery: stage every outbox into the destination inbox
        // heaps. Insertion into destination queues happens at execution
        // boundaries (Domain::advance_window), identically to channel mode.
        for (auto& d : domains_) {
            for (auto& m : d->outbox_) {
                const DomainId dst = m.dst;
                domains_[dst]->stage_inbound(std::move(m));
            }
            d->outbox_.clear();
        }
    }
}

// ---------------------------------------------------------------------------
// Lock-free channel plane (SyncMode::kChannel). See DESIGN §8.7.
// ---------------------------------------------------------------------------

void ShardedSimulation::build_channel_plane() {
    const bool channels_stale =
        !in_channels_built_ || in_channels_.size() != domains_.size();
    build_in_channels();
    if (plane_built_ && !channels_stale && in_edges_.size() == domains_.size()) {
        return;
    }
    const std::size_t n = domains_.size();
    edges_.clear();
    in_edges_.assign(n, {});
    out_edges_.assign(n, {});
    for (DomainId dst = 0; dst < n; ++dst) {
        for (const auto& [src, lookahead] : in_channels_[dst]) {
            const auto idx = static_cast<std::uint32_t>(edges_.size());
            edges_.push_back(ChannelEdge{src, dst, lookahead});
            in_edges_[dst].push_back(idx);
            out_edges_[src].push_back(idx);
        }
    }
    edge_of_.assign(n * n, kNoEdge);
    for (std::uint32_t e = 0; e < edges_.size(); ++e) {
        edge_of_[static_cast<std::size_t>(edges_[e].src) * n + edges_[e].dst] = e;
    }
    clocks_ = std::make_unique<ChannelClock[]>(std::max<std::size_t>(1, edges_.size()));
    rings_.clear();
    rings_.reserve(edges_.size());
    for (std::size_t e = 0; e < edges_.size(); ++e) {
        rings_.push_back(
            std::make_unique<SpscRing<std::vector<Domain::Message>>>(64));
    }
    dirty_ = std::make_unique<std::atomic<std::uint8_t>[]>(std::max<std::size_t>(1, n));
    fence_wait_ = std::make_unique<std::atomic<std::int64_t>[]>(std::max<std::size_t>(1, n));
    plane_built_ = true;
}

bool ShardedSimulation::plane_clean() const {
    for (std::size_t i = 0; i < domains_.size(); ++i) {
        if (dirty_[i].load(std::memory_order_seq_cst) != 0) return false;
    }
    for (const auto& ring : rings_) {
        if (!ring->empty()) return false;
    }
    return true;
}

bool ShardedSimulation::quiescent_lockfree(Mode mode, SimTime deadline) {
    // Horizon lift (DESIGN §8.7): with every lane idle and the plane clean,
    // the incremental EIT climb -- one lookahead per examination, the source
    // of almost every null message in a drained stretch -- can be replaced by
    // its own fixpoint, computed here in one shot. Each domain's next-work
    // time floors its next execution; relaxing x[dst] <- min(x[dst], x[src] +
    // L(src, dst)) over the channel graph (Bellman-Ford, at most n rounds
    // with positive lookaheads) converges to x[j] = min over sources k of
    // (next_work(k) + dist(k, j)) -- a sound execution floor because any
    // earlier event at j would have to ride a message chain from some k, each
    // hop costing at least its channel lookahead. Publishing the lifted
    // floors jumps every horizon straight past the drained gap; the heal
    // below then wakes exactly the domains the jump made eligible.
    if (!edges_.empty()) {
        std::vector<std::int64_t> x(domains_.size());
        for (std::size_t i = 0; i < domains_.size(); ++i) {
            x[i] = domains_[i]->next_work_time().ns();
        }
        for (std::size_t round = 0; round < domains_.size(); ++round) {
            bool changed = false;
            for (const auto& edge : edges_) {
                const std::int64_t cand =
                    saturating_add(SimTime{x[edge.src]}, edge.lookahead).ns();
                if (cand < x[edge.dst]) {
                    x[edge.dst] = cand;
                    changed = true;
                }
            }
            if (!changed) break;
        }
        for (std::size_t e = 0; e < edges_.size(); ++e) {
            ChannelClock& clk = clocks_[e];
            const std::int64_t lifted = x[edges_[e].src];
            if (lifted > clk.horizon.load(std::memory_order_relaxed)) {
                clk.horizon.store(lifted, std::memory_order_seq_cst);
                // The jump satisfies any pending pull on this channel; the
                // demander, if it still owes work, is re-armed by the heal.
                clk.demand.store(0, std::memory_order_seq_cst);
            }
        }
    }
    bool quiescent = true;
    const SimTime fence{fence_ns_.load(std::memory_order_seq_cst)};
    for (std::size_t i = 0; i < domains_.size(); ++i) {
        const Domain& d = *domains_[i];
        bool owes = false;
        if (mode == Mode::kRun) {
            owes = d.has_eligible_work(fence);
        } else {
            const SimTime next = d.next_work_time();
            owes = (next <= deadline && next != SimTime::max()) ||
                   d.sim().now() < deadline;
        }
        if (owes) {
            // The plane is clean (no dirty flags, no ring content) yet this
            // domain still owes work: a wakeup was suppressed with a null
            // advance or lost to the fence_wait_ race. Re-arm the owner --
            // this heal is the liveness backstop that lets suppression be
            // aggressive.
            dirty_[i].store(1, std::memory_order_seq_cst);
            quiescent = false;
        }
    }
    if (!quiescent) {
        for (auto& gate : gates_) gate->notify();
    }
    return quiescent;
}

// One lane of the lock-free channel coordinator. A domain is examined only
// when its dirty flag is set (a mailbox push, an in-channel horizon advance,
// a fence raise it was waiting on, or a demand aimed at it); one examination
// drains its mailboxes, runs a window to its EIT, flushes its outbox as one
// SPSC batch per destination, and publishes its horizon per out-channel
// unless the advance is a pure null. No lock is taken anywhere on that path.
// When a full pass finds nothing dirty the lane registers idle under
// sync_mu_ (the only lock left) and parks on its Eventcount; the last lane
// to idle with a clean plane runs the quiescence scan.
void ShardedSimulation::channel_lane(std::size_t lane, std::size_t nlanes,
                                     Mode mode, SimTime deadline) {
    using Clock = std::chrono::steady_clock;
    LaneStat& stat = lane_stats_[lane];
    Eventcount& gate = *gates_[lane];
    const std::size_t n = domains_.size();
    const SimTime past_deadline = mode == Mode::kRunUntil
                                      ? saturating_add(deadline, nanoseconds(1))
                                      : SimTime::max();
    // Lane-local scratch, reused across windows: per-destination batch
    // accumulators and the pop buffer whose capacity the rings recycle.
    std::vector<std::vector<Domain::Message>> pending(n);
    std::vector<DomainId> touched;
    std::vector<Domain::Message> popped;

    // Wake the owner of domain d. Only the 0 -> 1 transition notifies: if the
    // flag was already set, the notify that accompanied that earlier setting
    // is still outstanding (the owner has not consumed the flag), so another
    // epoch bump would be redundant.
    auto mark_dirty = [&](DomainId d) {
        if (dirty_[d].exchange(1, std::memory_order_seq_cst) == 0) {
            gates_[d % nlanes]->notify();
        }
    };

    // EIT(i): min over in-channels of published horizon + lookahead. Pure
    // atomic loads -- the hot read the whole redesign exists for.
    auto eit_of = [&](std::size_t i) {
        SimTime eit = SimTime::max();
        for (const auto e : in_edges_[i]) {
            const SimTime h{clocks_[e].horizon.load(std::memory_order_acquire)};
            eit = std::min(eit, saturating_add(h, edges_[e].lookahead));
        }
        return eit;
    };

    // Demand-driven null request: poke exactly the in-channel whose clock
    // binds EIT(i). The producer's next publication on a demanded channel
    // wakes the consumer, and a producer that is itself input-limited
    // forwards the pull upstream, so the request climbs the laggard chain
    // until it reaches a domain that can actually act.
    auto demand_upstream = [&](std::size_t i) {
        std::uint32_t laggard = kNoEdge;
        SimTime laggard_eit = SimTime::max();
        for (const auto e : in_edges_[i]) {
            const SimTime h{clocks_[e].horizon.load(std::memory_order_acquire)};
            const SimTime v = saturating_add(h, edges_[e].lookahead);
            if (v < laggard_eit) {
                laggard_eit = v;
                laggard = e;
            }
        }
        if (laggard == kNoEdge) return;
        if (clocks_[laggard].demand.exchange(1, std::memory_order_seq_cst) == 0) {
            ++stat.demands;
            mark_dirty(edges_[laggard].src);
        }
    };

    // Examine one owned domain; returns true when it made progress (drained
    // mail, executed events).
    auto examine = [&](std::size_t i) -> bool {
        Domain& d = *domains_[i];
        bool progressed = false;
        // Order matters for correctness (DESIGN §8.7): read the horizons
        // *before* draining the rings. A batch pushed after its channel's
        // horizon h was published carries timestamps >= h + L, so an EIT
        // computed from pre-drain horizons can never authorize execution
        // past a message this drain misses.
        SimTime eit = eit_of(i);
        for (const auto e : in_edges_[i]) {
            while (rings_[e]->try_pop(popped)) {
                d.stage_inbound_batch(popped);
                progressed = true;
            }
        }
        const SimTime fence = mode == Mode::kRun
                                  ? SimTime{fence_ns_.load(std::memory_order_acquire)}
                                  : SimTime::max();
        SimTime end = eit;
        if (mode == Mode::kRunUntil) end = std::min(end, past_deadline);
        std::uint64_t executed = 0;
        if (d.next_work_time() < end && d.has_eligible_work(fence)) {
            const auto t0 = Clock::now();
            executed = d.advance_window(end, fence);
            stat.busy_ns += elapsed_ns(t0, Clock::now());
            ++stat.windows;
            if (executed > 0) progressed = true;
        } else {
            // Obliged work exists but the window is EIT-blocked: pull the
            // laggard instead of waiting for it to broadcast.
            const SimTime next = d.next_work_time();
            const bool obliged = mode == Mode::kRun ? d.has_eligible_work(fence)
                                                    : next < past_deadline;
            if (obliged && eit != SimTime::max() && eit <= next) {
                demand_upstream(i);
            }
        }
        // Flush the outbox: one SPSC batch per destination. The batch must
        // be in the ring before the horizon publication below (release order
        // hands it to any consumer that sees the new horizon).
        bool sent_any = false;
        if (!d.outbox_.empty()) {
            touched.clear();
            for (auto& m : d.outbox_) {
                if (pending[m.dst].empty()) touched.push_back(m.dst);
                pending[m.dst].push_back(std::move(m));
            }
            d.outbox_.clear();
            sent_any = true;
            for (const DomainId dst : touched) {
                const std::uint32_t e = edge_of_[i * n + dst];
                auto& ring = *rings_[e];
                while (!ring.try_push(pending[dst])) {
                    // Ring full: the consumer lane is behind. Wake it, then
                    // help by draining our own inbound mail -- in any cycle
                    // of producers blocked on full rings every one of them
                    // is also a consumer, so someone's drain breaks the
                    // cycle -- and retry.
                    mark_dirty(dst);
                    for (std::size_t j = lane; j < n; j += nlanes) {
                        for (const auto e2 : in_edges_[j]) {
                            while (rings_[e2]->try_pop(popped)) {
                                domains_[j]->stage_inbound_batch(popped);
                                dirty_[j].store(1, std::memory_order_seq_cst);
                            }
                        }
                    }
                    cpu_relax();
                }
                mark_dirty(dst);
            }
        }
        // Fence extension (kRun): CAS-max, then wake exactly the domains
        // whose recorded fence-blocked daemon the raise unblocked.
        if (mode == Mode::kRun) {
            const std::int64_t uh = d.user_horizon().ns();
            std::int64_t cur = fence_ns_.load(std::memory_order_relaxed);
            bool raised = false;
            while (uh > cur) {
                if (fence_ns_.compare_exchange_weak(cur, uh,
                                                    std::memory_order_seq_cst,
                                                    std::memory_order_relaxed)) {
                    raised = true;
                    break;
                }
            }
            if (raised) {
                for (std::size_t j = 0; j < n; ++j) {
                    if (fence_wait_[j].load(std::memory_order_seq_cst) <= uh) {
                        mark_dirty(static_cast<DomainId>(j));
                    }
                }
            }
        } else {
            // run_until semantics: once nothing at or before the deadline
            // remains and nothing more can arrive (EIT cleared the deadline),
            // pin the clock to it; if the EIT has not cleared it yet, pull
            // the laggard until it does.
            const SimTime next = d.next_work_time();
            const bool drained = next > deadline || next == SimTime::max();
            if (drained && d.sim().now() < deadline) {
                if (eit_of(i) >= past_deadline) {
                    d.sim().run_until(deadline);
                } else {
                    demand_upstream(i);
                }
            }
        }
        // Horizon publication, per out-channel. h is a lower bound on
        // anything this domain will still execute (and hence send + L
        // later); monotone because both inputs are. Publication never wakes
        // the destination by itself — only a *demanded* publication does.
        // An undemanded horizon advance is pure bookkeeping: any domain that
        // actually needs it is (or will be, next time it is examined)
        // blocked, and a blocked domain always demands its laggard, whose
        // forced publication wakes it. Without this rule two drained
        // domains would re-dirty each other forever while their horizons
        // climb off each other toward infinity.
        const SimTime eit_now = eit_of(i);
        const SimTime h = std::min(d.next_work_time(), eit_now);
        const std::int64_t hns = h.ns();
        // A pure-null advance (nothing executed, nothing sent) is one step of
        // the incremental EIT climb. Those steps are withheld entirely --
        // demanded or not -- because the quiescence-time horizon lift
        // computes the climb's fixpoint in one shot once the plane drains;
        // publishing them here would keep the plane busy (each step
        // re-dirties a consumer) and the lift would never run.
        const bool pure_null = executed == 0 && !sent_any;
        bool published_any = false;
        for (const auto e : out_edges_[i]) {
            ChannelClock& clk = clocks_[e];
            const std::int64_t cur = clk.horizon.load(std::memory_order_relaxed);
            const bool demanded = clk.demand.load(std::memory_order_seq_cst) != 0;
            if (hns > cur && pure_null) {
                ++stat.suppressed;
            } else if (hns > cur) {
                clk.horizon.store(hns, std::memory_order_seq_cst);
                published_any = true;
                if (demanded) {
                    clk.demand.store(0, std::memory_order_seq_cst);
                    mark_dirty(edges_[e].dst);
                }
            } else if (demanded) {
                // The pull cannot be honoured right now; leave the flag set
                // (so the eventual advance wakes the consumer) and either
                // climb the chain or hand the decision back.
                if (eit_now <= d.next_work_time() && !in_edges_[i].empty()) {
                    // Input-limited: this clock cannot advance until our own
                    // laggard does. Forward the pull up the chain.
                    demand_upstream(i);
                } else {
                    // We hold local work that will advance this clock when
                    // the fence or deadline lets it run; bounce the pull so
                    // the consumer re-evaluates its laggard.
                    mark_dirty(edges_[e].dst);
                }
            }
        }
        if (published_any) {
            publications_.fetch_add(1, std::memory_order_relaxed);
            // Unreachable while pure nulls take the suppression branch
            // above; counted so that a publication path which stops
            // withholding them shows in null_messages(), which
            // channel_sync_test bounds at zero.
            if (pure_null) ++stat.nulls;
        }
        // Record what this domain is fence-blocked on (max = nothing), so a
        // fence raise wakes it without a broadcast. A racing raise that
        // misses this store is healed by the quiescence scan.
        if (mode == Mode::kRun) {
            std::int64_t fw = std::numeric_limits<std::int64_t>::max();
            const SimTime fence_now{fence_ns_.load(std::memory_order_seq_cst)};
            if (!d.has_eligible_work(fence_now)) {
                const SimTime next = d.next_work_time();
                if (next != SimTime::max()) fw = next.ns();
            }
            fence_wait_[i].store(fw, std::memory_order_seq_cst);
        }
        // Re-arm: the window ran up to the EIT but obliged work remains
        // beyond it. The next examination either executes (the horizon
        // moved) or issues the demand pull above.
        if (executed > 0) {
            const SimTime next = d.next_work_time();
            const bool obliged =
                mode == Mode::kRun
                    ? d.has_eligible_work(
                          SimTime{fence_ns_.load(std::memory_order_acquire)})
                    : next < past_deadline;
            if (obliged && eit_now != SimTime::max() && eit_now <= next) {
                dirty_[i].store(1, std::memory_order_seq_cst);
            }
        }
        return progressed;
    };

    try {
        for (;;) {
            if (lf_done_.load(std::memory_order_acquire)) return;
            bool progressed = false;
            for (std::size_t i = lane; i < n; i += nlanes) {
                if (dirty_[i].exchange(0, std::memory_order_seq_cst) == 0) continue;
                if (examine(i)) progressed = true;
            }
            if (progressed) continue;
            // Pre-park protocol: take the gate ticket first, then re-check
            // for late arrivals. Any dirty mark after the ticket bumps the
            // epoch (mark_dirty notifies on the 0 -> 1 transition), so
            // wait() returns immediately; any mark before it is seen here.
            const std::uint64_t ticket = gate.prepare();
            if (lf_done_.load(std::memory_order_seq_cst)) return;
            bool any_dirty = false;
            for (std::size_t i = lane; i < n; i += nlanes) {
                if (dirty_[i].load(std::memory_order_seq_cst) != 0) {
                    any_dirty = true;
                    break;
                }
            }
            if (any_dirty) continue;
            {
                std::unique_lock<std::mutex> lock(sync_mu_);
                ++idle_lanes_;
                if (idle_lanes_ == nlanes && plane_clean()) {
                    // Last lane in with a clean plane: every other lane's
                    // domain state is visible (each registered idle under
                    // this mutex after its final pass).
                    if (quiescent_lockfree(mode, deadline)) {
                        --idle_lanes_;
                        lf_done_.store(true, std::memory_order_seq_cst);
                        lock.unlock();
                        for (auto& g : gates_) g->notify();
                        return;
                    }
                    // Not quiescent: the scan healed (re-marked) every domain
                    // still owing work. Two consecutive heals bracketing zero
                    // executed events and zero publications mean no amount of
                    // re-examination can help -- the protocol is wedged.
                    const std::uint64_t ev = events_executed();
                    const std::uint64_t pub =
                        publications_.load(std::memory_order_relaxed);
                    if (ev == heal_events_ && pub == heal_pubs_) {
                        throw std::logic_error(
                            "ShardedSimulation: lock-free channel coordinator "
                            "stalled (no progress, clean plane, not quiescent)");
                    }
                    heal_events_ = ev;
                    heal_pubs_ = pub;
                }
            }
            const auto t0 = Clock::now();
            const bool parked = gate.wait(ticket, &stat.parked_ns);
            stat.blocked_ns += elapsed_ns(t0, Clock::now());
            if (parked) ++stat.parks;
            ++stat.wakeups;
            {
                std::lock_guard<std::mutex> lock(sync_mu_);
                --idle_lanes_;
            }
        }
    } catch (...) {
        {
            std::lock_guard<std::mutex> lock(sync_mu_);
            if (lane_error_ == nullptr) lane_error_ = std::current_exception();
        }
        lf_done_.store(true, std::memory_order_seq_cst);
        for (auto& g : gates_) g->notify();
    }
}

void ShardedSimulation::drive_channel(Mode mode, SimTime deadline) {
    build_channel_plane();
    const std::size_t lanes = shard_count();
    std::size_t workers = options_.workers;
    if (workers == 0) {
        workers = std::min<std::size_t>(
            lanes, std::max(1u, std::thread::hardware_concurrency()));
    }
    const std::size_t nlanes = std::min(lanes, std::max<std::size_t>(1, workers));

    // Single-threaded setup: merge ring leftovers from a prior run that died
    // exceptionally plus messages posted outside any window, reset the plane
    // (clocks are monotone *within* a run), and arm every domain.
    drain_staged_inboxes();
    for (auto& d : domains_) {
        for (auto& m : d->outbox_) domains_[m.dst]->stage_inbound(std::move(m));
        d->outbox_.clear();
    }
    for (std::size_t e = 0; e < edges_.size(); ++e) {
        clocks_[e].horizon.store(0, std::memory_order_relaxed);
        clocks_[e].demand.store(0, std::memory_order_relaxed);
    }
    for (std::size_t i = 0; i < domains_.size(); ++i) {
        dirty_[i].store(1, std::memory_order_relaxed);
        fence_wait_[i].store(std::numeric_limits<std::int64_t>::max(),
                             std::memory_order_relaxed);
    }
    fence_ns_.store(mode == Mode::kRun ? compute_fence().ns() : 0,
                    std::memory_order_relaxed);
    lf_done_.store(false, std::memory_order_relaxed);
    publications_.store(0, std::memory_order_relaxed);
    idle_lanes_ = 0;
    heal_events_ = ~std::uint64_t{0};
    heal_pubs_ = ~std::uint64_t{0};
    lane_error_ = nullptr;
    lane_stats_.assign(nlanes, LaneStat{});
    if (gates_.size() != nlanes) {
        gates_.clear();
        for (std::size_t t = 0; t < nlanes; ++t) {
            gates_.push_back(std::make_unique<Eventcount>());
        }
    }

    if (nlanes <= 1) {
        // Deterministic inline path: one lane, calling thread, fixed pass
        // order -- the window, null, suppression, and demand counters are
        // all reproducible here (channel_sync_test bounds them).
        channel_lane(0, 1, mode, deadline);
    } else {
        std::vector<std::thread> threads;
        threads.reserve(nlanes);
        for (std::size_t t = 0; t < nlanes; ++t) {
            threads.emplace_back([this, t, nlanes, mode, deadline] {
                channel_lane(t, nlanes, mode, deadline);
            });
        }
        for (auto& th : threads) th.join();
    }
    for (const auto& stat : lane_stats_) {
        rounds_ += stat.windows;
        null_messages_ += stat.nulls;
        suppressed_publications_ += stat.suppressed;
        demand_requests_ += stat.demands;
        wakeups_ += stat.wakeups;
    }
    if (lane_error_ != nullptr) {
        std::exception_ptr err = lane_error_;
        lane_error_ = nullptr;
        std::rethrow_exception(err);
    }
}

void ShardedSimulation::dump_metrics(std::ostream& os) const {
    MetricsRegistry merged;
    for (const auto& d : domains_) merged.merge_from(d->metrics());
    merged.dump(os);
}

std::string ShardedSimulation::dump_metrics() const {
    std::ostringstream os;
    dump_metrics(os);
    return os.str();
}

void ShardedSimulation::write_chrome_trace(std::ostream& os) const {
    std::vector<const Tracer*> tracers;
    tracers.reserve(domains_.size());
    for (const auto& d : domains_) tracers.push_back(&d->tracer());
    Tracer::write_merged_chrome_trace(os, tracers);
}

void ShardedSimulation::flush_logs(std::ostream& os) {
    for (auto& d : domains_) d->log_buffer().flush_to(os);
}

void ShardedSimulation::flush_logs_if_configured() {
    if (log_output_ != nullptr) flush_logs(*log_output_);
}

} // namespace tedge::sim

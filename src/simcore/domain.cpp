#include "simcore/domain.hpp"

#include <algorithm>
#include <stdexcept>
#include <utility>

#include "simcore/sharded_simulation.hpp"

namespace tedge::sim {

Domain::Domain(ShardedSimulation& coordinator, DomainId id, std::string name,
               std::uint64_t run_seed)
    : coordinator_(&coordinator),
      id_(id),
      name_(std::move(name)),
      rng_(Rng::for_stream(run_seed, id)) {
    // The coordinator's daemon fence is the max user timestamp scheduled
    // anywhere; every domain kernel reports its local contribution.
    sim_.track_user_horizon();
}

void Domain::enable_tracing() {
    tracer_.attach(sim_);
    tracer_.enable();
}

Logger Domain::make_logger(const std::string& component, LogLevel level) {
    Logger logger(sim_, component, level);
    logger.set_sink(log_buffer_.sink());
    return logger;
}

SimTime Domain::lookahead() const { return coordinator_->lookahead(); }

SimTime Domain::lookahead_to(DomainId dst) const {
    return coordinator_->channel_lookahead(id_, dst);
}

std::size_t Domain::domain_count() const { return coordinator_->domain_count(); }

void Domain::post(DomainId dst, SimTime at, EventQueue::Callback cb, bool daemon) {
    if (dst >= coordinator_->domain_count()) {
        throw std::out_of_range("Domain::post: unknown destination domain");
    }
    const SimTime lookahead = coordinator_->channel_lookahead(id_, dst);
    // The conservative contract: the receiver may already be executing up to
    // the channel lookahead ahead of this domain's clock, so anything earlier
    // than now + lookahead could land in its past. SimTime::max() means the
    // coordinator was never given a finite lookahead -- posting is an error.
    if (lookahead == SimTime::max()) {
        throw std::logic_error(
            "Domain::post: coordinator has no finite lookahead (set one from "
            "the topology partition before using cross-domain messages)");
    }
    if (at < sim_.now() + lookahead) {
        throw std::logic_error(
            "Domain::post: message timestamp violates the lookahead contract "
            "(at < now + channel lookahead)");
    }
    if (!daemon && at > posted_user_horizon_) posted_user_horizon_ = at;
    if (dst == id_) {
        // A self-post is a deferred local schedule: insert immediately. The
        // channel coordinator's window is bounded only by *other* domains'
        // horizons, so routing a self-post through the outbox could let this
        // domain execute past the timestamp before delivery; insertion at
        // post time is a fixed point of the domain's own deterministic
        // execution, identical under every coordinator and window structure.
        sim_.schedule_at(at, std::move(cb), daemon);
        ++delivered_;
        return;
    }
    outbox_.push_back(Message{at, id_, dst, next_send_seq_++, std::move(cb), daemon});
}

void Domain::stage_inbound(Message&& m) {
    if (!m.daemon) ++inbox_user_;
    inbox_.push_back(std::move(m));
    std::push_heap(inbox_.begin(), inbox_.end(), message_after);
}

void Domain::stage_inbound_batch(std::vector<Message>& batch) {
    for (auto& m : batch) stage_inbound(std::move(m));
    batch.clear();
}

SimTime Domain::next_work_time() const {
    SimTime next = inbox_next_time();
    if (sim_.has_pending_events()) next = std::min(next, sim_.next_time());
    return next;
}

bool Domain::has_eligible_work(SimTime fence) const {
    if (has_user_work()) return true;
    if (sim_.has_pending_events() && sim_.next_time() <= fence) return true;
    return !inbox_.empty() && inbox_.front().at <= fence;
}

SimTime Domain::user_horizon() const {
    return std::max(sim_.user_horizon(), posted_user_horizon_);
}

std::uint64_t Domain::advance_window(SimTime end, SimTime fence) {
    std::uint64_t executed = 0;
    for (;;) {
        const SimTime tm = inbox_next_time();
        const SimTime bound = std::min(end, tm);
        executed += sim_.run_window_fenced(bound, fence);
        if (sim_.has_pending_events() && sim_.next_time() < bound) {
            break;  // fence-blocked daemon; the window cannot pop past it
        }
        // A daemon message past the fence is not yet eligible; leaving it
        // staged (rather than inserting and blocking on it) keeps insertion —
        // and the delivered counter — window-structure independent. A *user*
        // message never trips this: the sender extended the fence to at
        // least its timestamp when it posted.
        if (tm >= end || tm > fence) break;
        // Boundary insertion: the kernel stopped just before `tm`, so these
        // messages enter the queue before the first pop at or past their
        // timestamp. Heap order hands them over in (at, src, seq) — the merge
        // total order — and any local event already pending at `tm` keeps its
        // earlier insertion seq, a tie-break no window structure can perturb.
        while (!inbox_.empty() && inbox_.front().at == tm) {
            std::pop_heap(inbox_.begin(), inbox_.end(), message_after);
            Message m = std::move(inbox_.back());
            inbox_.pop_back();
            if (!m.daemon) --inbox_user_;
            sim_.schedule_at(m.at, std::move(m.fn), m.daemon);
            ++delivered_;
        }
    }
    return executed;
}

} // namespace tedge::sim

#include "simcore/simulation.hpp"

#include <stdexcept>

#include "simcore/tracer.hpp"

namespace tedge::sim {

EventHandle Simulation::insert_traced(SimTime at, EventQueue::Callback cb, bool daemon) {
    return queue_.push(at, tracer_->propagate(std::move(cb)), daemon);
}

void Simulation::throw_invalid(const char* what) { throw std::invalid_argument(what); }

// Self-rescheduling tick: each firing moves the shared state into the next
// event, 16 bytes that fit UniqueFunction's inline buffer. The state does not
// own a tick, so there is no reference cycle: it is freed once the handle is
// gone and the last tick has fired or been dropped with the queue.
struct Simulation::PeriodicTick {
    std::shared_ptr<PeriodicState> state;

    void operator()() {
        auto& s = *state;
        if (s.stopped) return;
        s.cb();
        if (s.stopped) return;
        s.sim->schedule(s.period, PeriodicTick{std::move(state)}, s.daemon);
    }
};

Simulation::PeriodicHandle Simulation::schedule_periodic(SimTime period,
                                                         std::function<void()> cb,
                                                         bool daemon) {
    if (period <= SimTime::zero()) throw std::invalid_argument("non-positive period");
    PeriodicHandle handle;
    handle.state_ =
        std::make_shared<PeriodicState>(PeriodicState{this, period, std::move(cb), daemon});
    schedule(period, PeriodicTick{handle.state_}, daemon);
    return handle;
}

std::uint64_t Simulation::run() {
    stop_requested_ = false;
    std::uint64_t n = 0;
    while (queue_.has_user_events() && !stop_requested_) {
        execute_next();
        ++n;
    }
    return n;
}

std::uint64_t Simulation::run_until(SimTime deadline) {
    stop_requested_ = false;
    std::uint64_t n = 0;
    while (!queue_.empty() && !stop_requested_ && queue_.next_time() <= deadline) {
        execute_next();
        ++n;
    }
    if (!stop_requested_ && now_ < deadline) now_ = deadline;
    return n;
}

std::uint64_t Simulation::run_window(SimTime end, bool require_user) {
    stop_requested_ = false;
    std::uint64_t n = 0;
    while (!queue_.empty() && !stop_requested_ &&
           (!require_user || queue_.has_user_events()) &&
           queue_.next_time() < end) {
        execute_next();
        ++n;
    }
    return n;
}

std::uint64_t Simulation::run_window_fenced(SimTime end, SimTime fence) {
    stop_requested_ = false;
    std::uint64_t n = 0;
    while (!queue_.empty() && !stop_requested_) {
        const SimTime next = queue_.next_time();
        if (next >= end) break;
        // The daemon peek runs only past the fence — the common case (user
        // work ahead of the fence) stays a single timestamp compare.
        if (next > fence && queue_.next_is_daemon()) break;
        execute_next();
        ++n;
    }
    return n;
}

std::uint64_t Simulation::run_until_idle_or(SimTime deadline) {
    stop_requested_ = false;
    std::uint64_t n = 0;
    while (!stop_requested_ && queue_.has_user_events() &&
           queue_.next_time() <= deadline) {
        execute_next();
        ++n;
    }
    if (!stop_requested_ && queue_.has_user_events() && now_ < deadline) {
        now_ = deadline;
    }
    return n;
}

} // namespace tedge::sim

// The discrete-event simulation kernel.
//
// A Simulation owns the virtual clock and the event queue. Components
// schedule callbacks at relative delays or absolute times; run() drains the
// queue in deterministic order. There is exactly one Simulation per
// experiment; components hold a reference to it.
//
// Events come in two flavours: user events (the default) drive the
// experiment forward; daemon events are housekeeping periodics (cache
// sweeps, idle reapers, autoscaler ticks) that execute normally while user
// events are pending but do not keep run() alive on their own — run()
// returns once only daemon events remain, exactly like daemon threads.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>

#include "simcore/event_queue.hpp"
#include "simcore/time.hpp"

namespace tedge::sim {

class MetricsRegistry;
class Tracer;

class Simulation {
public:
    Simulation() = default;

    // The kernel is referenced by every component; it must not move.
    Simulation(const Simulation&) = delete;
    Simulation& operator=(const Simulation&) = delete;

    /// Pre-size the kernel for `events` concurrently pending events (see
    /// EventQueue::reserve). Call before the run when the peak is known.
    void reserve_events(std::size_t events) { queue_.reserve(events); }

    /// Current virtual time.
    [[nodiscard]] SimTime now() const { return now_; }

    /// Schedule `fn` to run `delay` after the current time. The callable is
    /// built directly in its event slot (see EventQueue::push).
    template <typename F>
    EventHandle schedule(SimTime delay, F&& fn, bool daemon = false) {
        if (delay < SimTime::zero()) throw_invalid("negative delay");
        return insert(now_ + delay, std::forward<F>(fn), daemon);
    }

    /// Schedule `fn` at absolute time `at` (must be >= now()).
    template <typename F>
    EventHandle schedule_at(SimTime at, F&& fn, bool daemon = false) {
        if (at < now_) throw_invalid("schedule_at in the past");
        return insert(at, std::forward<F>(fn), daemon);
    }

private:
    struct PeriodicState;

public:
    /// Schedule a callback that re-arms itself every `period` until the
    /// returned handle is cancelled. The first firing is after `period`.
    /// Pass daemon=true for housekeeping periodics that should not keep
    /// run() alive once all user events have drained. The callback and its
    /// schedule live in one block that the handle and the pending tick
    /// share; a tick re-arms by moving its pointer to that block into the
    /// next event, so a firing allocates nothing of its own.
    class PeriodicHandle {
    public:
        void cancel() { if (state_) state_->stopped = true; }
        [[nodiscard]] bool active() const { return state_ && !state_->stopped; }
    private:
        friend class Simulation;
        std::shared_ptr<PeriodicState> state_;
    };
    PeriodicHandle schedule_periodic(SimTime period, std::function<void()> cb,
                                     bool daemon = false);

    /// Run until no user events remain or a stop was requested. Daemon
    /// events scheduled before the last user event still execute in time
    /// order. Returns the number of events executed.
    std::uint64_t run();

    /// Run until virtual time reaches `deadline` (events at exactly the
    /// deadline still execute, daemon or not). The clock is advanced to
    /// `deadline` if the queue drains earlier. Returns the number of events
    /// executed.
    std::uint64_t run_until(SimTime deadline);

    /// Run while `pred()` is true. The predicate is evaluated before each
    /// event; execution also stops when no user events remain or stop() is
    /// called. The clock is left at the last executed event. Returns the
    /// number of events executed. Replaces drain loops of the form
    /// `while (!cond) run_until(now() + slice)`.
    template <typename Pred>
    std::uint64_t run_while(Pred&& pred) {
        stop_requested_ = false;
        std::uint64_t n = 0;
        while (!stop_requested_ && queue_.has_user_events() && pred()) {
            execute_next();
            ++n;
        }
        return n;
    }

    /// Like run_until(deadline), but returns as soon as no user events
    /// remain — without advancing the clock to the deadline — instead of
    /// grinding through remaining daemon housekeeping. If user events are
    /// still pending beyond the deadline, the clock is advanced to
    /// `deadline` exactly like run_until.
    std::uint64_t run_until_idle_or(SimTime deadline);

    /// Conservative-window primitive for the sharded kernel: execute events
    /// strictly before `end` (daemon or not) and leave the clock at the last
    /// executed event — the window boundary is never materialized as a clock
    /// value, so a later window (or a cross-domain delivery at exactly `end`)
    /// can still schedule there. With `require_user` set, execution also
    /// stops once no user events remain, mirroring run(); run_window(max,
    /// true) is exactly run(). Returns the number of events executed.
    std::uint64_t run_window(SimTime end, bool require_user);

    /// Fenced conservative window for the multi-domain coordinators: execute
    /// events strictly before `end` like run_window, but additionally stop —
    /// without popping — when the next event is a *daemon* with timestamp
    /// beyond `fence`. The fence is the global user-event horizon (the
    /// largest user timestamp scheduled anywhere in the sharded run): daemon
    /// housekeeping executes only while user work at or past it exists, a
    /// schedule-independent restatement of run()'s daemon semantics that is
    /// identical under any window structure. Pass fence = SimTime::max() to
    /// disable the fence (run_until-style windows). Returns events executed.
    std::uint64_t run_window_fenced(SimTime end, SimTime fence);

    /// Request that run()/run_until() return after the current event.
    void stop() { stop_requested_ = true; }

    /// True if any events (user or daemon) remain.
    [[nodiscard]] bool has_pending_events() const { return !queue_.empty(); }

    /// Timestamp of the earliest pending event. Only valid while
    /// has_pending_events(); the sharded coordinator uses it to compute the
    /// global conservative window.
    [[nodiscard]] SimTime next_time() const { return queue_.next_time(); }

    /// True while at least one non-daemon event remains.
    [[nodiscard]] bool has_user_events() const { return queue_.has_user_events(); }

    /// Number of events executed so far in this simulation's lifetime.
    [[nodiscard]] std::uint64_t events_executed() const { return executed_; }

    /// Total number of events ever scheduled (determinism diagnostics).
    [[nodiscard]] std::uint64_t total_scheduled() const {
        return queue_.total_scheduled();
    }

    /// Enable user-horizon tracking (the sharded kernel turns this on for
    /// every domain kernel at construction; standalone kernels skip the
    /// bookkeeping). Once enabled, user_horizon() reports the largest
    /// timestamp of any non-daemon event ever scheduled here — the domain's
    /// contribution to the coordinator's daemon fence.
    void track_user_horizon() { track_user_horizon_ = true; }
    [[nodiscard]] SimTime user_horizon() const { return user_horizon_; }

    /// Events the queue re-filed internally. The heap never re-files an
    /// event, so this is always zero; it remains only because e2ebench still
    /// reports it as a per-layer counter.
    struct CascadeStats {
        std::uint64_t refiled = 0;
    };
    [[nodiscard]] static CascadeStats wheel_cascade_stats() { return {}; }

    /// The enabled tracer, or nullptr (the default, and whenever tracing is
    /// disabled). Components guard span emission with this single pointer
    /// load; the tracer itself never schedules kernel events.
    [[nodiscard]] Tracer* tracer() const { return tracer_; }
    /// Managed by Tracer::enable/disable -- not called directly.
    void set_tracer(Tracer* tracer) { tracer_ = tracer; }

    /// The installed metrics registry, or nullptr (the default).
    [[nodiscard]] MetricsRegistry* metrics() const { return metrics_; }
    void set_metrics(MetricsRegistry* metrics) { metrics_ = metrics; }

private:
    struct PeriodicState {
        Simulation* sim;  // the kernel is pinned: non-movable, outlives its events
        SimTime period;
        std::function<void()> cb;
        bool daemon = false;
        bool stopped = false;
    };
    struct PeriodicTick;

    // Every run loop executes through here: the event runs in its slot.
    void execute_next() {
        queue_.run_next(now_);
        ++executed_;
    }

    template <typename F>
    EventHandle insert(SimTime at, F&& fn, bool daemon) {
        note_scheduled(at, daemon);
        if (tracer_ != nullptr) {
            return insert_traced(at, EventQueue::Callback(std::forward<F>(fn)), daemon);
        }
        return queue_.push(at, std::forward<F>(fn), daemon);
    }
    // With a tracer attached the callable is type-erased and wrapped by
    // Tracer::propagate; kept out of line so this header needs no tracer.
    EventHandle insert_traced(SimTime at, EventQueue::Callback cb, bool daemon);
    [[noreturn]] static void throw_invalid(const char* what);

    void note_scheduled(SimTime at, bool daemon) {
        if (track_user_horizon_ && !daemon && at > user_horizon_) {
            user_horizon_ = at;
        }
    }

    SimTime now_ = SimTime::zero();
    EventQueue queue_;
    bool stop_requested_ = false;
    std::uint64_t executed_ = 0;
    Tracer* tracer_ = nullptr;
    MetricsRegistry* metrics_ = nullptr;
    bool track_user_horizon_ = false;
    SimTime user_horizon_ = SimTime::zero();
};

} // namespace tedge::sim

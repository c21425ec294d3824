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

    /// Schedule `cb` to run `delay` after the current time.
    EventHandle schedule(SimTime delay, EventQueue::Callback cb, bool daemon = false);

    /// Schedule `cb` at absolute time `at` (must be >= now()).
    EventHandle schedule_at(SimTime at, EventQueue::Callback cb, bool daemon = false);

    /// Schedule a callback that re-arms itself every `period` until the
    /// returned handle is cancelled. The first firing is after `period`.
    /// Pass daemon=true for housekeeping periodics that should not keep
    /// run() alive once all user events have drained.
    class PeriodicHandle {
    public:
        void cancel() { if (stop_) *stop_ = true; }
        [[nodiscard]] bool active() const { return stop_ && !*stop_; }
    private:
        friend class Simulation;
        std::shared_ptr<bool> stop_;
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
    std::uint64_t run_while(const std::function<bool()>& pred);

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
    void execute_next();

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

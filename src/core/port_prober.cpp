#include "core/port_prober.hpp"

#include <algorithm>

#include "simcore/metrics_registry.hpp"
#include "simcore/tracer.hpp"

namespace tedge::core {

PortProber::PortProber(net::TcpNet& net, net::NodeId from, PortProberConfig config)
    : net_(net), from_(from), config_(config) {}

void PortProber::wait_ready(net::NodeId host, std::uint16_t port,
                            std::function<void(bool, sim::SimTime)> done) {
    const std::uint32_t slot = waits_.acquire();
    Wait& wait = waits_[slot];
    wait.host = host;
    wait.port = port;
    wait.started = net_.simulation().now();
    wait.done = std::move(done);
    probe_once(slot);
}

void PortProber::probe_once(std::uint32_t slot) {
    ++probes_;
    auto& sim = net_.simulation();
    if (auto* m = sim.metrics()) m->counter("core.prober.probes").inc();
    if (auto* tr = sim.tracer()) tr->instant("probe.attempt");
    const Wait& wait = waits_[slot];
    net_.probe(from_, wait.host, wait.port,
               [this, slot](bool open) { on_answer(slot, open); });
}

void PortProber::on_answer(std::uint32_t slot, bool open) {
    auto& sim = net_.simulation();
    const sim::SimTime waited = sim.now() - waits_[slot].started;
    if (open) {
        finish(slot, true, waited);
        return;
    }
    if (waited >= config_.timeout) {
        // Give up. The last probe's RTT may carry us past the deadline;
        // report the waiting time capped at the configured timeout so
        // callers see the budget they asked for, not the overshoot.
        ++timeouts_;
        if (auto* m = sim.metrics()) m->counter("core.prober.timeouts").inc();
        finish(slot, false, std::min(waited, config_.timeout));
        return;
    }
    // Clamp the final sleep to the remaining budget: without this the
    // deadline is only noticed after a whole extra interval + probe RTT,
    // overshooting config_.timeout by up to interval + RTT.
    const sim::SimTime delay = std::min(config_.interval, config_.timeout - waited);
    sim.schedule(delay, [this, slot] { probe_once(slot); });
}

void PortProber::finish(std::uint32_t slot, bool ok, sim::SimTime waited) {
    auto done = std::move(waits_[slot].done);
    waits_.release(slot);
    done(ok, waited);
}

} // namespace tedge::core

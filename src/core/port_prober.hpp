// Port-probing readiness check (paper §VI): after scaling up, the SDN
// controller continuously tests whether the service port is open before
// installing flows -- otherwise the server would reject the client's
// request that is being held.
#pragma once

#include <cstdint>
#include <functional>

#include "net/tcp.hpp"
#include "simcore/slot_pool.hpp"

namespace tedge::core {

struct PortProberConfig {
    sim::SimTime interval = sim::milliseconds(25);  ///< probe period
    sim::SimTime timeout = sim::seconds(120);       ///< give-up deadline
};

class PortProber {
public:
    /// Probes originate from `from` (the controller's host).
    PortProber(net::TcpNet& net, net::NodeId from, PortProberConfig config = {});

    /// Probe (host, port) until it accepts or the deadline passes. The
    /// sleep before the last probe is clamped to the remaining budget, so
    /// the give-up callback fires within one probe RTT of the deadline.
    /// `done(ok, waited)` reports success and the total time spent waiting;
    /// on give-up, `waited` is capped at the configured timeout.
    void wait_ready(net::NodeId host, std::uint16_t port,
                    std::function<void(bool ok, sim::SimTime waited)> done);

    [[nodiscard]] std::uint64_t probes_sent() const { return probes_; }
    [[nodiscard]] std::uint64_t timeouts() const { return timeouts_; }

private:
    /// One wait_ready() call until it reports. Its probes and sleeps capture
    /// only the slot, so a wait allocates nothing after it starts.
    struct Wait {
        net::NodeId host;
        std::uint16_t port = 0;
        sim::SimTime started;
        std::function<void(bool, sim::SimTime)> done;
    };

    void probe_once(std::uint32_t slot);
    void on_answer(std::uint32_t slot, bool open);
    /// Free the slot, then report to the waiter.
    void finish(std::uint32_t slot, bool ok, sim::SimTime waited);

    net::TcpNet& net_;
    net::NodeId from_;
    PortProberConfig config_;
    sim::SlotPool<Wait> waits_;
    std::uint64_t probes_ = 0;
    std::uint64_t timeouts_ = 0;
};

} // namespace tedge::core

// Heap allocations of port probing: PortProber keeps each wait in a slot
// pool and TcpNet each probe, and their events capture only (owner, slot),
// so once a wait has started its probes allocate nothing -- however long a
// cold start keeps the port closed.
#include <gtest/gtest.h>

#include <memory>

#include "alloc_counter.hpp"
#include "core/port_prober.hpp"
#include "net/tcp.hpp"

namespace tedge {
namespace {

TEST(ProbeAllocations, ProbesAfterTheFirstAllocateNothing) {
    sim::Simulation simulation;
    net::Topology topo;
    net::EndpointDirectory endpoints;
    const auto controller = topo.add_host("ctl", net::Ipv4{10, 0, 0, 4});
    const auto edge = topo.add_host("edge", net::Ipv4{10, 0, 0, 2});
    const auto sw = topo.add_switch("sw");
    topo.add_link(controller, sw, sim::microseconds(100), sim::gbit_per_sec(1));
    topo.add_link(edge, sw, sim::microseconds(100), sim::gbit_per_sec(10));
    net::OvsSwitch ovs(simulation, topo, sw);
    net::TcpNet tcp(simulation, topo, ovs, endpoints);
    core::PortProber prober(tcp, controller);  // 25 ms interval, 120 s timeout

    // A first wait, answered at once, warms both slot pools.
    topo.open_port(edge, 8080);
    bool warmed = false;
    prober.wait_ready(edge, 8080, [&](bool ok, sim::SimTime) { warmed = ok; });
    simulation.run();
    ASSERT_TRUE(warmed);

    bool answered = false;
    bool ready = true;
    prober.wait_ready(edge, 9000, [&](bool ok, sim::SimTime) {
        answered = true;
        ready = ok;
    });
    // The first probe has been answered and the prober sleeps before the
    // second: everything a wait sets up exists by now.
    simulation.run_until(simulation.now() + sim::milliseconds(10));
    ASSERT_EQ(prober.probes_sent(), 2u);

    const std::uint64_t before = testkit::allocations();
    simulation.run();
    const std::uint64_t allocated = testkit::allocations() - before;
    ASSERT_TRUE(answered);
    EXPECT_FALSE(ready);  // the port never opened
    EXPECT_EQ(prober.timeouts(), 1u);
    const std::uint64_t probes = prober.probes_sent() - 2;
    EXPECT_GT(probes, 4'000u);
    EXPECT_EQ(allocated, 0u) << allocated << " allocations over " << probes
                             << " probes after the first";
}

} // namespace
} // namespace tedge

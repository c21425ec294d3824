// OVS switch pipeline and TCP/HTTP model tests.
#include <gtest/gtest.h>

#include "net/ovs_switch.hpp"
#include "net/tcp.hpp"

namespace tedge::net {
namespace {

using sim::milliseconds;
using sim::microseconds;

struct SwitchFixture : ::testing::Test {
    void SetUp() override {
        client = topo.add_host("client", Ipv4{10, 0, 1, 1});
        server = topo.add_host("server", Ipv4{10, 0, 0, 2});
        cloud = topo.add_host("cloud", Ipv4{10, 255, 0, 1});
        sw = topo.add_switch("sw");
        topo.add_link(client, sw, microseconds(100), sim::gbit_per_sec(1));
        topo.add_link(server, sw, microseconds(100), sim::gbit_per_sec(10));
        topo.add_link(cloud, sw, milliseconds(20), sim::gbit_per_sec(10));
        ovs = std::make_unique<OvsSwitch>(simulation, topo, sw);
        net = std::make_unique<TcpNet>(simulation, topo, *ovs, endpoints);
    }

    Packet packet_to(Ipv4 dst, std::uint16_t port) {
        Packet p;
        p.ingress = client;
        p.src_ip = topo.node(client).ip;
        p.src_port = 40000;
        p.dst_ip = dst;
        p.dst_port = port;
        return p;
    }

    sim::Simulation simulation;
    Topology topo;
    EndpointDirectory endpoints;
    NodeId client, server, cloud, sw;
    std::unique_ptr<OvsSwitch> ovs;
    std::unique_ptr<TcpNet> net;
};

TEST_F(SwitchFixture, NoControllerForwardsToOriginalDestination) {
    Resolution result;
    bool done = false;
    ovs->submit(packet_to(topo.node(cloud).ip, 80), [&](const Resolution& r) {
        result = r;
        done = true;
    });
    simulation.run();
    ASSERT_TRUE(done);
    EXPECT_FALSE(result.dropped);
    EXPECT_EQ(result.dest_node, cloud);
}

TEST_F(SwitchFixture, TableHitRewritesDestination) {
    FlowEntry entry;
    entry.match.dst_ip = Ipv4{203, 0, 113, 1};
    entry.match.dst_port = 80;
    entry.action.set_dst_ip = topo.node(server).ip;
    entry.action.set_dst_port = 8080;
    entry.action.forward_to = server;
    ovs->table().install(entry, simulation.now());

    Resolution result;
    ovs->submit(packet_to(Ipv4{203, 0, 113, 1}, 80),
                [&](const Resolution& r) { result = r; });
    simulation.run();
    EXPECT_EQ(result.dest_node, server);
    EXPECT_EQ(result.effective_dst.ip, topo.node(server).ip);
    EXPECT_EQ(result.effective_dst.port, 8080);
}

TEST_F(SwitchFixture, MissBuffersAndRaisesPacketIn) {
    std::vector<PacketIn> ins;
    ovs->set_controller([&](const PacketIn& in) { ins.push_back(in); });

    bool resolved = false;
    ovs->submit(packet_to(Ipv4{203, 0, 113, 1}, 80),
                [&](const Resolution&) { resolved = true; });
    simulation.run();
    ASSERT_EQ(ins.size(), 1u);
    EXPECT_FALSE(resolved); // held until the controller answers
    EXPECT_EQ(ovs->buffered_packets(), 1u);
    EXPECT_EQ(ovs->packet_in_count(), 1u);

    // Controller installs a redirect and releases the packet.
    FlowEntry entry;
    entry.match.dst_ip = Ipv4{203, 0, 113, 1};
    entry.action.set_dst_ip = topo.node(server).ip;
    entry.action.forward_to = server;
    ovs->flow_mod(FlowMod{entry});
    ovs->packet_out(PacketOut{ins[0].buffer_id, true, false});
    simulation.run();
    EXPECT_TRUE(resolved);
    EXPECT_EQ(ovs->buffered_packets(), 0u);
}

// The buffer maps ids to packets however they are answered: out of order,
// around a packet held while ids wrap the index many times, and with stale
// or unknown ids ignored.
TEST_F(SwitchFixture, BufferIdsReleaseTheirOwnPacketsInAnyOrder) {
    std::vector<PacketIn> ins;
    ovs->set_controller([&](const PacketIn& in) { ins.push_back(in); });
    std::vector<int> resolved;
    const auto submit = [&](std::uint16_t src_port) {
        Packet p = packet_to(topo.node(cloud).ip, 80);
        p.src_port = src_port;
        ovs->submit(p, [&resolved, src_port](const Resolution& r) {
            EXPECT_FALSE(r.dropped);
            resolved.push_back(src_port);
        });
    };

    submit(1);  // held until the end
    simulation.run();
    ASSERT_EQ(ins.size(), 1u);
    const PacketIn held = ins.front();

    for (int round = 0; round < 4; ++round) {
        ins.clear();
        resolved.clear();
        for (std::uint16_t i = 0; i < 300; ++i) submit(static_cast<std::uint16_t>(1000 + i));
        simulation.run();
        ASSERT_EQ(ins.size(), 300u);
        EXPECT_EQ(ovs->buffered_packets(), 301u);
        // Answer newest first, each with its own id.
        for (auto it = ins.rbegin(); it != ins.rend(); ++it) {
            ovs->packet_out(PacketOut{it->buffer_id, false, false});
        }
        simulation.run();
        ASSERT_EQ(resolved.size(), 300u);
        for (std::size_t k = 0; k < 300; ++k) {
            EXPECT_EQ(resolved[k], ins[299 - k].packet.src_port);
        }
        EXPECT_EQ(ovs->buffered_packets(), 1u);
    }

    // Stale and never-issued ids change nothing.
    resolved.clear();
    ovs->packet_out(PacketOut{ins.front().buffer_id, false, false});
    ovs->packet_out(PacketOut{0, false, false});
    ovs->packet_out(PacketOut{held.buffer_id + 1'000'000, false, false});
    simulation.run();
    EXPECT_TRUE(resolved.empty());
    EXPECT_EQ(ovs->buffered_packets(), 1u);

    ovs->packet_out(PacketOut{held.buffer_id, false, false});
    simulation.run();
    ASSERT_EQ(resolved.size(), 1u);
    EXPECT_EQ(resolved.front(), 1);
    EXPECT_EQ(held.packet.src_port, 1);
    EXPECT_EQ(ovs->buffered_packets(), 0u);
}

// A miss that finds the packet-in buffer full never reaches the controller:
// it is dropped and counted as an overflow, not as a packet-in.
TEST_F(SwitchFixture, FullPacketInBufferCountsOverflow) {
    OvsSwitch small(simulation, topo, sw, OvsSwitchConfig{.buffer_capacity = 1});
    std::size_t packet_ins_seen = 0;
    small.set_controller([&](const PacketIn&) { ++packet_ins_seen; }); // never answers
    std::size_t resolved = 0;
    std::size_t dropped = 0;
    for (std::uint16_t port = 80; port <= 81; ++port) {
        small.submit(packet_to(Ipv4{203, 0, 113, 1}, port), [&](const Resolution& r) {
            ++resolved;
            dropped += r.dropped;
        });
    }
    simulation.run();
    EXPECT_EQ(packet_ins_seen, 1u);
    EXPECT_EQ(small.packet_in_count(), 1u);
    EXPECT_EQ(small.buffer_overflows(), 1u);
    EXPECT_EQ(small.buffered_packets(), 1u);
    EXPECT_EQ(resolved, 1u);
    EXPECT_EQ(dropped, 1u);
}

TEST_F(SwitchFixture, PacketOutDropDiscards) {
    PacketIn captured;
    ovs->set_controller([&](const PacketIn& in) { captured = in; });
    Resolution result;
    ovs->submit(packet_to(Ipv4{203, 0, 113, 1}, 80),
                [&](const Resolution& r) { result = r; });
    simulation.run();
    ovs->packet_out(PacketOut{captured.buffer_id, false, true});
    simulation.run();
    EXPECT_TRUE(result.dropped);
}

TEST_F(SwitchFixture, PacketOutWithoutTableForwardsOriginal) {
    PacketIn captured;
    ovs->set_controller([&](const PacketIn& in) { captured = in; });
    Resolution result;
    ovs->submit(packet_to(topo.node(cloud).ip, 80),
                [&](const Resolution& r) { result = r; });
    simulation.run();
    ovs->packet_out(PacketOut{captured.buffer_id, false, false});
    simulation.run();
    EXPECT_EQ(result.dest_node, cloud);
}

TEST_F(SwitchFixture, BufferOverflowDrops) {
    OvsSwitch::Config config;
    config.buffer_capacity = 1;
    OvsSwitch tiny(simulation, topo, sw, config);
    tiny.set_controller([](const PacketIn&) {});
    int dropped = 0;
    for (int i = 0; i < 3; ++i) {
        tiny.submit(packet_to(Ipv4{203, 0, 113, 1}, 80), [&](const Resolution& r) {
            if (r.dropped) ++dropped;
        });
    }
    simulation.run();
    EXPECT_EQ(dropped, 2);
}

// ------------------------------------------------------------------ TCP

TEST_F(SwitchFixture, HttpRequestToOpenEndpointSucceeds) {
    topo.open_port(server, 8080);
    endpoints.bind(server, 8080, [&](sim::Bytes, EndpointDirectory::ReplyFn reply) {
        simulation.schedule(microseconds(200), [reply] { reply(512); });
    });
    FlowEntry entry;
    entry.match.dst_ip = Ipv4{203, 0, 113, 1};
    entry.action.set_dst_ip = topo.node(server).ip;
    entry.action.set_dst_port = 8080;
    entry.action.forward_to = server;
    ovs->table().install(entry, simulation.now());

    HttpResult result;
    net->http_request(client, ServiceAddress{Ipv4{203, 0, 113, 1}, 80}, 100,
                      [&](const HttpResult& r) { result = r; });
    simulation.run();
    EXPECT_TRUE(result.ok) << result.error;
    EXPECT_EQ(result.server_node, server);
    EXPECT_EQ(result.served_by.port, 8080);
    // Path latency 200us one way: total must exceed 2 RTTs but stay tiny.
    EXPECT_GT(result.time_total, microseconds(600));
    EXPECT_LT(result.time_total, milliseconds(5));
    EXPECT_GT(result.time_total, result.connect_time);
}

TEST_F(SwitchFixture, ClosedPortGivesConnectionRefused) {
    FlowEntry entry;
    entry.match.dst_ip = Ipv4{203, 0, 113, 1};
    entry.action.set_dst_ip = topo.node(server).ip;
    entry.action.set_dst_port = 8080;
    entry.action.forward_to = server;
    ovs->table().install(entry, simulation.now());

    HttpResult result;
    net->http_request(client, ServiceAddress{Ipv4{203, 0, 113, 1}, 80}, 100,
                      [&](const HttpResult& r) { result = r; });
    simulation.run();
    EXPECT_FALSE(result.ok);
    EXPECT_EQ(result.error, "connection refused");
    EXPECT_EQ(net->requests_failed(), 1u);
}

TEST_F(SwitchFixture, UnroutableDestinationFails) {
    HttpResult result;
    net->http_request(client, ServiceAddress{Ipv4{99, 99, 99, 99}, 80}, 100,
                      [&](const HttpResult& r) { result = r; });
    simulation.run();
    EXPECT_FALSE(result.ok);
}

TEST_F(SwitchFixture, ProbeReportsPortStateAfterOneRtt) {
    topo.open_port(server, 9000);
    bool open = false;
    sim::SimTime answered;
    net->probe(client, server, 9000, [&](bool o) {
        open = o;
        answered = simulation.now();
    });
    simulation.run();
    EXPECT_TRUE(open);
    EXPECT_EQ(answered, microseconds(400)); // 2 x 200us one-way

    bool closed_result = true;
    net->probe(client, server, 9001, [&](bool o) { closed_result = o; });
    simulation.run();
    EXPECT_FALSE(closed_result);
}

TEST_F(SwitchFixture, ProbeSeesPortStateAtSynArrival) {
    // Port opens 150us from now; SYN arrives at 200us -> open.
    simulation.schedule(microseconds(150), [&] { topo.open_port(server, 9100); });
    bool open = false;
    net->probe(client, server, 9100, [&](bool o) { open = o; });
    simulation.run();
    EXPECT_TRUE(open);
}

// The fixture's 203.0.113.1:80 -> server:8080 redirect, with the port open
// and a handler answering 512 bytes after 200 us.
struct ExchangeFixture : SwitchFixture {
    void SetUp() override {
        SwitchFixture::SetUp();
        FlowEntry entry;
        entry.match.dst_ip = Ipv4{203, 0, 113, 1};
        entry.action.set_dst_ip = topo.node(server).ip;
        entry.action.set_dst_port = 8080;
        entry.action.forward_to = server;
        ovs->table().install(entry, simulation.now());
        topo.open_port(server, 8080);
        endpoints.bind(server, 8080, [&](sim::Bytes, EndpointDirectory::ReplyFn reply) {
            ++served;
            simulation.schedule(microseconds(200), [reply] { reply(512); });
        });
    }

    const ServiceAddress service{Ipv4{203, 0, 113, 1}, 80};
    int served = 0;
};

// The handler is looked up when the SYN leaves the switch and held until
// the request reaches the server, so an unbind in between (the instance
// stopping) still serves the request the handshake already accepted.
TEST_F(ExchangeFixture, HandlerUnboundBeforeServerArrivalStillServes) {
    HttpResult result;
    int calls = 0;
    net->http_request(client, service, 100, [&](const HttpResult& r) {
        result = r;
        ++calls;
    });
    // Resolution at ~110 us; the request reaches the server at ~700 us.
    simulation.run_until(microseconds(300));
    ASSERT_EQ(calls, 0);
    endpoints.unbind(server, 8080);
    simulation.run();
    EXPECT_EQ(calls, 1);
    EXPECT_TRUE(result.ok) << result.error;
    EXPECT_EQ(served, 1);

    // A request resolved after the unbind finds no handler.
    net->http_request(client, service, 100, [&](const HttpResult& r) { result = r; });
    simulation.run();
    EXPECT_FALSE(result.ok);
    EXPECT_EQ(result.error, "no endpoint handler bound");
}

// Every failure path completes the exchange exactly once, with its reason.
// The continuation is move-only: it owns a unique_ptr.
TEST_F(SwitchFixture, EveryFailurePathCompletesExactlyOnce) {
    const NodeId island = topo.add_host("island", Ipv4{10, 0, 9, 9}); // no links
    const auto redirect = [&](Ipv4 dst, NodeId node, std::uint16_t port) {
        FlowEntry entry;
        entry.match.dst_ip = dst;
        entry.action.set_dst_ip = topo.node(node).ip;
        entry.action.set_dst_port = port;
        entry.action.forward_to = node;
        ovs->table().install(entry, simulation.now());
    };
    redirect(Ipv4{203, 0, 113, 1}, server, 8080); // port closed
    redirect(Ipv4{203, 0, 113, 2}, island, 80);   // unreachable host
    redirect(Ipv4{203, 0, 113, 3}, server, 9090); // open, no handler
    topo.open_port(server, 9090);

    const std::vector<std::pair<ServiceAddress, std::string_view>> cases = {
        {{Ipv4{203, 0, 113, 1}, 80}, "connection refused"},
        {{Ipv4{99, 99, 99, 99}, 80}, "packet dropped (no route to destination)"},
        {{Ipv4{203, 0, 113, 2}, 80}, "no path from client to server"},
        {{Ipv4{203, 0, 113, 3}, 80}, "no endpoint handler bound"},
    };
    std::vector<int> calls(cases.size(), 0);
    std::vector<HttpResult> results(cases.size());
    for (std::size_t i = 0; i < cases.size(); ++i) {
        auto owned = std::make_unique<int>(1);
        net->http_request(client, cases[i].first, 100,
                          [&, i, owned = std::move(owned)](const HttpResult& r) {
                              calls[i] += *owned;
                              results[i] = r;
                          });
    }
    simulation.run();

    for (std::size_t i = 0; i < cases.size(); ++i) {
        EXPECT_EQ(calls[i], 1) << cases[i].second;
        EXPECT_FALSE(results[i].ok) << cases[i].second;
        EXPECT_EQ(results[i].error, cases[i].second);
    }
    EXPECT_EQ(net->requests_failed(), cases.size());
}

// A handler that answers one request twice is a bug the exchange reports
// instead of completing the request a second time.
TEST_F(ExchangeFixture, SecondReplyToOneRequestThrows) {
    endpoints.bind(server, 8080, [](sim::Bytes, EndpointDirectory::ReplyFn reply) {
        reply(1);
        reply(1);
    });
    net->http_request(client, service, 100, [](const HttpResult&) {});
    EXPECT_THROW(simulation.run(), std::logic_error);
}

// Exchange and pipeline slots are reused: once the pools have grown to the
// peak concurrency, further waves of the same size allocate no slot.
TEST_F(ExchangeFixture, SlotsAreReusedAfterWarmUp) {
    constexpr int kWave = 8;
    int completed = 0;
    const auto wave = [&] {
        for (int i = 0; i < kWave; ++i) {
            net->http_request(client, service, 100,
                              [&](const HttpResult& r) { completed += r.ok; });
        }
        simulation.run();
    };
    wave();
    ASSERT_EQ(completed, kWave);
    const std::size_t exchanges = net->exchange_slots();
    const std::size_t pipeline = ovs->pipeline_slots();
    EXPECT_EQ(exchanges, static_cast<std::size_t>(kWave));
    EXPECT_GE(pipeline, 1u);
    EXPECT_LE(pipeline, static_cast<std::size_t>(kWave));
    for (int i = 0; i < 50; ++i) wave();
    EXPECT_EQ(completed, 51 * kWave);
    EXPECT_EQ(net->exchange_slots(), exchanges);
    EXPECT_EQ(ovs->pipeline_slots(), pipeline);
}

TEST(EndpointDirectory, BindFindUnbind) {
    EndpointDirectory directory;
    const NodeId node{3};
    EXPECT_EQ(directory.find(node, 80), nullptr);
    directory.bind(node, 80, [](sim::Bytes, EndpointDirectory::ReplyFn reply) {
        reply(1);
    });
    EXPECT_NE(directory.find(node, 80), nullptr);
    EXPECT_EQ(directory.find(node, 81), nullptr);
    EXPECT_EQ(directory.find(NodeId{4}, 80), nullptr);
    directory.unbind(node, 80);
    EXPECT_EQ(directory.find(node, 80), nullptr);
}

} // namespace
} // namespace tedge::net

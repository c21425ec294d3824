// Network substrate tests: addresses, flow tables, topology, shared links.
#include <gtest/gtest.h>

#include <random>
#include <string>
#include <utility>
#include <vector>

#include "net/address.hpp"
#include "net/flow_table.hpp"
#include "net/link.hpp"
#include "net/topology.hpp"
#include "simcore/simulation.hpp"

namespace tedge::net {
namespace {

using sim::milliseconds;
using sim::microseconds;
using sim::seconds;

// ---------------------------------------------------------------- address

TEST(Ipv4, ParseAndFormatRoundTrip) {
    const auto ip = Ipv4::parse("192.168.1.200");
    ASSERT_TRUE(ip);
    EXPECT_EQ(ip->str(), "192.168.1.200");
    EXPECT_EQ(Ipv4(192, 168, 1, 200), *ip);
}

class BadIpv4 : public ::testing::TestWithParam<const char*> {};

TEST_P(BadIpv4, ParseRejectsMalformed) {
    EXPECT_FALSE(Ipv4::parse(GetParam())) << GetParam();
}

INSTANTIATE_TEST_SUITE_P(Cases, BadIpv4,
                         ::testing::Values("", "1.2.3", "1.2.3.4.5", "256.1.1.1",
                                           "a.b.c.d", "1..2.3", "1.2.3.4 ",
                                           "-1.2.3.4", "1.2.3.4x"));

TEST(ServiceAddress, ParseVariants) {
    const auto tcp = ServiceAddress::parse("10.0.0.1:8080");
    ASSERT_TRUE(tcp);
    EXPECT_EQ(tcp->port, 8080);
    EXPECT_EQ(tcp->proto, Proto::kTcp);
    EXPECT_EQ(tcp->str(), "10.0.0.1:8080");

    const auto udp = ServiceAddress::parse("10.0.0.1:53/udp");
    ASSERT_TRUE(udp);
    EXPECT_EQ(udp->proto, Proto::kUdp);
    EXPECT_EQ(udp->str(), "10.0.0.1:53/udp");

    EXPECT_FALSE(ServiceAddress::parse("10.0.0.1"));
    EXPECT_FALSE(ServiceAddress::parse("10.0.0.1:99999"));
    EXPECT_FALSE(ServiceAddress::parse("10.0.0.1:80/sctp"));
}

TEST(ServiceAddress, HashAndEquality) {
    const ServiceAddress a{Ipv4{1, 2, 3, 4}, 80};
    const ServiceAddress b{Ipv4{1, 2, 3, 4}, 80};
    const ServiceAddress c{Ipv4{1, 2, 3, 4}, 81};
    EXPECT_EQ(a, b);
    EXPECT_NE(a, c);
    EXPECT_EQ(std::hash<ServiceAddress>{}(a), std::hash<ServiceAddress>{}(b));
}

// --------------------------------------------------------------- flow table

Packet make_packet(Ipv4 src, Ipv4 dst, std::uint16_t dport) {
    Packet p;
    p.src_ip = src;
    p.dst_ip = dst;
    p.dst_port = dport;
    return p;
}

TEST(FlowTable, MatchesMostSpecificHighestPriority) {
    FlowTable table;
    FlowEntry broad;
    broad.match.dst_ip = Ipv4{10, 0, 0, 1};
    broad.priority = 100;
    broad.cookie = 1;
    table.install(broad, sim::SimTime::zero());

    FlowEntry narrow = broad;
    narrow.match.dst_port = 80;
    narrow.cookie = 2;
    table.install(narrow, sim::SimTime::zero());

    const auto hit = table.lookup(make_packet(Ipv4{1, 1, 1, 1}, Ipv4{10, 0, 0, 1}, 80),
                                  sim::SimTime::zero());
    ASSERT_TRUE(hit);
    EXPECT_EQ(hit->cookie, 2u); // more specific wins at equal priority

    FlowEntry high = broad;
    high.priority = 200;
    high.cookie = 3;
    table.install(high, milliseconds(1));
    const auto hit2 = table.lookup(make_packet(Ipv4{1, 1, 1, 1}, Ipv4{10, 0, 0, 1}, 80),
                                   milliseconds(1));
    ASSERT_TRUE(hit2);
    EXPECT_EQ(hit2->cookie, 3u); // priority beats specificity
}

TEST(FlowTable, WildcardsMatchAnything) {
    FlowTable table;
    FlowEntry any;
    any.priority = 1;
    any.cookie = 9;
    table.install(any, sim::SimTime::zero());
    const auto hit = table.lookup(make_packet(Ipv4{9, 9, 9, 9}, Ipv4{8, 8, 8, 8}, 443),
                                  sim::SimTime::zero());
    ASSERT_TRUE(hit);
    EXPECT_EQ(hit->cookie, 9u);
}

TEST(FlowTable, MissCountsAndHitCounts) {
    FlowTable table;
    EXPECT_FALSE(table.lookup(make_packet(Ipv4{1, 1, 1, 1}, Ipv4{2, 2, 2, 2}, 80),
                              sim::SimTime::zero()));
    EXPECT_EQ(table.miss_count(), 1u);
    FlowEntry e;
    e.match.dst_port = 80;
    table.install(e, sim::SimTime::zero());
    EXPECT_TRUE(table.lookup(make_packet(Ipv4{1, 1, 1, 1}, Ipv4{2, 2, 2, 2}, 80),
                             sim::SimTime::zero()));
    EXPECT_EQ(table.hit_count(), 1u);
}

TEST(FlowTable, IdleTimeoutExpiresUnusedEntries) {
    FlowTable table;
    FlowEntry e;
    e.match.dst_port = 80;
    e.idle_timeout = seconds(10);
    table.install(e, sim::SimTime::zero());

    // Used at t=5s: stays alive past 10s.
    EXPECT_TRUE(table.lookup(make_packet(Ipv4{1, 1, 1, 1}, Ipv4{2, 2, 2, 2}, 80),
                             seconds(5)));
    EXPECT_TRUE(table.lookup(make_packet(Ipv4{1, 1, 1, 1}, Ipv4{2, 2, 2, 2}, 80),
                             seconds(12)));
    // Idle from 12s: gone at 22s.
    EXPECT_FALSE(table.lookup(make_packet(Ipv4{1, 1, 1, 1}, Ipv4{2, 2, 2, 2}, 80),
                              seconds(22)));
    EXPECT_EQ(table.size(), 0u);
}

TEST(FlowTable, HardTimeoutExpiresEvenWhenBusy) {
    FlowTable table;
    FlowEntry e;
    e.match.dst_port = 80;
    e.hard_timeout = seconds(10);
    table.install(e, sim::SimTime::zero());
    for (int t = 1; t < 10; ++t) {
        EXPECT_TRUE(table.lookup(make_packet(Ipv4{1, 1, 1, 1}, Ipv4{2, 2, 2, 2}, 80),
                                 seconds(t)));
    }
    EXPECT_FALSE(table.lookup(make_packet(Ipv4{1, 1, 1, 1}, Ipv4{2, 2, 2, 2}, 80),
                              seconds(10)));
}

TEST(FlowTable, RemovedCallbackReportsIdleVsHard) {
    FlowTable table;
    std::vector<std::pair<std::uint64_t, bool>> removed;
    table.set_removed_callback([&](const FlowEntry& entry, bool idle) {
        removed.emplace_back(entry.cookie, idle);
    });
    FlowEntry idle_entry;
    idle_entry.match.dst_port = 1;
    idle_entry.idle_timeout = seconds(5);
    idle_entry.cookie = 1;
    FlowEntry hard_entry;
    hard_entry.match.dst_port = 2;
    hard_entry.hard_timeout = seconds(5);
    hard_entry.cookie = 2;
    table.install(idle_entry, sim::SimTime::zero());
    table.install(hard_entry, sim::SimTime::zero());
    table.expire(seconds(6));
    ASSERT_EQ(removed.size(), 2u);
    for (const auto& [cookie, idle] : removed) {
        EXPECT_EQ(idle, cookie == 1);
    }
}

TEST(FlowTable, InstallOverwritesSameMatchAndPriority) {
    FlowTable table;
    FlowEntry e;
    e.match.dst_port = 80;
    e.cookie = 1;
    EXPECT_FALSE(table.install(e, sim::SimTime::zero()));
    e.cookie = 2;
    EXPECT_TRUE(table.install(e, sim::SimTime::zero()));
    EXPECT_EQ(table.size(), 1u);
    const std::vector<FlowEntry> entries = table.entries();
    ASSERT_EQ(entries.size(), 1u);
    EXPECT_EQ(entries.front().cookie, 2u);
}

// Sweeps are lazy, so an entry past its timeout can still sit in the table
// when an identical flow-mod arrives. The old entry must leave as a sweep
// would have removed it -- through the removed-callback -- and the new one is
// a fresh install that ranks after every earlier install.
TEST(FlowTable, InstallOverExpiredEntryReportsRemoval) {
    FlowTable table;
    std::vector<std::pair<std::uint64_t, bool>> removed;
    table.set_removed_callback([&](const FlowEntry& entry, bool idle) {
        removed.emplace_back(entry.cookie, idle);
    });
    FlowEntry first;
    first.match.dst_port = 80;
    first.idle_timeout = seconds(5);
    first.cookie = 1;
    table.install(first, sim::SimTime::zero());
    // Same priority and specificity as `first`, installed later: loses ties.
    FlowEntry other;
    other.match.dst_ip = Ipv4{2, 2, 2, 2};
    other.cookie = 3;
    table.install(other, sim::SimTime::zero());
    const Packet packet = make_packet(Ipv4{1, 1, 1, 1}, Ipv4{2, 2, 2, 2}, 80);
    ASSERT_EQ(table.peek(packet, seconds(1))->cookie, 1u);

    FlowEntry again = first;
    again.cookie = 2;
    EXPECT_FALSE(table.install(again, seconds(6)));
    ASSERT_EQ(removed.size(), 1u);
    EXPECT_EQ(removed[0], std::make_pair(std::uint64_t{1}, true));
    EXPECT_EQ(table.size(), 2u);
    const std::vector<FlowEntry> entries = table.entries();
    ASSERT_EQ(entries.size(), 2u);
    EXPECT_EQ(entries[0].cookie, 3u);
    EXPECT_EQ(entries[1].cookie, 2u);
    EXPECT_EQ(entries[1].installed_at, seconds(6));
    // The fresh install now loses the tie to `other`.
    const auto hit = table.lookup(packet, seconds(6));
    ASSERT_TRUE(hit);
    EXPECT_EQ(hit->cookie, 3u);
    EXPECT_EQ(removed.size(), 1u);

    // A hard expiry is reported as such.
    FlowEntry hard;
    hard.match.dst_port = 443;
    hard.hard_timeout = seconds(5);
    hard.cookie = 4;
    table.install(hard, seconds(6));
    hard.cookie = 5;
    EXPECT_FALSE(table.install(hard, seconds(11)));
    ASSERT_EQ(removed.size(), 2u);
    EXPECT_EQ(removed[1], std::make_pair(std::uint64_t{4}, false));
    EXPECT_EQ(table.size(), 3u);
}

TEST(FlowTable, RemoveByCookieAndMatch) {
    FlowTable table;
    for (std::uint16_t port = 1; port <= 4; ++port) {
        FlowEntry e;
        e.match.dst_port = port;
        e.cookie = port % 2;
        table.install(e, sim::SimTime::zero());
    }
    EXPECT_EQ(table.remove_by_cookie(1), 2u);
    FlowMatch match;
    match.dst_port = 2;
    EXPECT_EQ(table.remove(match), 1u);
    EXPECT_EQ(table.size(), 1u);
}

// A delete filtered by action: only entries steering to exactly that
// (node, port) go.
TEST(FlowTable, RemoveByTargetFiltersOnAction) {
    FlowTable table;
    for (std::uint16_t port = 1; port <= 3; ++port) {
        FlowEntry e;
        e.match.dst_port = port;
        e.action.forward_to = NodeId{port == 3 ? 8u : 7u};
        e.action.set_dst_port = static_cast<std::uint16_t>(port == 2 ? 9000 : 8000);
        table.install(e, sim::SimTime::zero());
    }
    EXPECT_EQ(table.remove_by_target(NodeId{7}, 8000), 1u);
    ASSERT_EQ(table.size(), 2u);
    const std::vector<FlowEntry> entries = table.entries();
    ASSERT_EQ(entries.size(), 2u);
    EXPECT_EQ(*entries[0].match.dst_port, 2);  // same node, other port
    EXPECT_EQ(*entries[1].match.dst_port, 3);  // same port, other node
}

TEST(FlowMatch, SpecificityCountsConcreteFields) {
    FlowMatch m;
    EXPECT_EQ(m.specificity(), 0);
    m.dst_ip = Ipv4{1, 2, 3, 4};
    m.dst_port = 80;
    EXPECT_EQ(m.specificity(), 2);
    EXPECT_NE(m.str().find("1.2.3.4"), std::string::npos);
}

// ---------------------------------------------------------------- topology

TEST(Topology, ShortestPathByLatency) {
    Topology topo;
    const auto a = topo.add_host("a", Ipv4{10, 0, 0, 1});
    const auto s1 = topo.add_switch("s1");
    const auto s2 = topo.add_switch("s2");
    const auto b = topo.add_host("b", Ipv4{10, 0, 0, 2});
    // Two routes a->b: via s1 (3 ms) and via s2 (10 ms).
    topo.add_link(a, s1, milliseconds(1), sim::gbit_per_sec(1));
    topo.add_link(s1, b, milliseconds(2), sim::mbit_per_sec(100));
    topo.add_link(a, s2, milliseconds(5), sim::gbit_per_sec(10));
    topo.add_link(s2, b, milliseconds(5), sim::gbit_per_sec(10));

    const auto path = topo.path(a, b);
    ASSERT_TRUE(path);
    EXPECT_EQ(path->latency, milliseconds(3));
    EXPECT_EQ(path->hops, 2);
    EXPECT_EQ(path->bottleneck, sim::mbit_per_sec(100));
    EXPECT_EQ(path->rtt(), milliseconds(6));
}

TEST(Topology, DisconnectedReturnsNullopt) {
    Topology topo;
    const auto a = topo.add_host("a", Ipv4{10, 0, 0, 1});
    const auto b = topo.add_host("b", Ipv4{10, 0, 0, 2});
    EXPECT_FALSE(topo.path(a, b));
    EXPECT_THROW(static_cast<void>(topo.latency(a, b)), std::runtime_error);
}

TEST(Topology, SelfPathIsZero) {
    Topology topo;
    const auto a = topo.add_host("a", Ipv4{10, 0, 0, 1});
    const auto path = topo.path(a, a);
    ASSERT_TRUE(path);
    EXPECT_EQ(path->latency, sim::SimTime::zero());
    EXPECT_EQ(path->hops, 0);
}

TEST(Topology, LookupsAndUniqueness) {
    Topology topo;
    const auto a = topo.add_host("a", Ipv4{10, 0, 0, 1}, 8);
    EXPECT_EQ(topo.find_by_name("a"), a);
    EXPECT_EQ(topo.find_by_ip(Ipv4{10, 0, 0, 1}), a);
    EXPECT_FALSE(topo.find_by_name("zz"));
    EXPECT_EQ(topo.node(a).cpu_cores, 8u);
    EXPECT_THROW(topo.add_host("a", Ipv4{10, 0, 0, 9}), std::invalid_argument);
    EXPECT_THROW(topo.add_host("b", Ipv4{10, 0, 0, 1}), std::invalid_argument);
    EXPECT_THROW(topo.add_host("c", Ipv4{}), std::invalid_argument);
    EXPECT_THROW(topo.add_link(a, a, milliseconds(1), sim::gbit_per_sec(1)),
                 std::invalid_argument);
}

TEST(Topology, IpAliases) {
    Topology topo;
    const auto a = topo.add_host("a", Ipv4{10, 0, 0, 1});
    topo.add_ip_alias(a, Ipv4{203, 0, 113, 7});
    EXPECT_EQ(topo.find_by_ip(Ipv4{203, 0, 113, 7}), a);
    topo.add_ip_alias(a, Ipv4{203, 0, 113, 7}); // idempotent
    const auto b = topo.add_host("b", Ipv4{10, 0, 0, 2});
    EXPECT_THROW(topo.add_ip_alias(b, Ipv4{203, 0, 113, 7}), std::invalid_argument);
}

TEST(Topology, PathCacheInvalidatedByPostLookupMutation) {
    // Regression: the memoized path cache must not serve routes computed on
    // an older graph. Query first (filling the cache), then mutate.
    Topology topo;
    const auto a = topo.add_host("a", Ipv4{10, 0, 0, 1});
    const auto s1 = topo.add_switch("s1");
    const auto b = topo.add_host("b", Ipv4{10, 0, 0, 2});
    topo.add_link(a, s1, milliseconds(10), sim::gbit_per_sec(1));
    topo.add_link(s1, b, milliseconds(10), sim::gbit_per_sec(1));

    ASSERT_TRUE(topo.path(a, b));
    EXPECT_EQ(topo.latency(a, b), milliseconds(20)); // cache now holds 20 ms

    // A faster link added after the first lookup must win immediately.
    topo.add_link(a, b, milliseconds(3), sim::gbit_per_sec(10));
    EXPECT_EQ(topo.latency(a, b), milliseconds(3));
    EXPECT_EQ(topo.path(a, b)->hops, 1);

    // A node attached after a cached *negative* result must become reachable.
    const auto c = topo.add_host("c", Ipv4{10, 0, 0, 3});
    EXPECT_FALSE(topo.path(a, c)); // cached as disconnected
    topo.add_link(b, c, milliseconds(5), sim::gbit_per_sec(1));
    const auto path = topo.path(a, c);
    ASSERT_TRUE(path);
    EXPECT_EQ(path->latency, milliseconds(8));
}

// The path table against a reference that has never answered a query: a
// fresh topology built from the same mutation log. Between rounds of
// queries the graph gains hosts, switches and links; every round asks
// sources queried before and sources seen for the first time.
TEST(Topology, PathTableMatchesFreshTopologyAcrossMutations) {
    struct Link {
        std::uint32_t a;
        std::uint32_t b;
        std::int64_t latency_us;
        std::int64_t rate_mbps;
    };
    std::vector<bool> is_switch;
    std::vector<Link> links;
    Topology cached;
    const auto add_node = [&](Topology& topo, std::uint32_t i) {
        if (is_switch[i]) {
            topo.add_switch("n" + std::to_string(i));
        } else {
            topo.add_host("n" + std::to_string(i), Ipv4{10, 1, 0, static_cast<std::uint8_t>(i + 1)});
        }
    };
    const auto add_link = [](Topology& topo, const Link& l) {
        topo.add_link(NodeId{l.a}, NodeId{l.b}, microseconds(l.latency_us),
                      sim::mbit_per_sec(l.rate_mbps));
    };
    std::mt19937 rng(11);
    const auto grow = [&](bool node) {
        if (node || is_switch.size() < 2) {
            is_switch.push_back(rng() % 3 == 0);
            add_node(cached, static_cast<std::uint32_t>(is_switch.size() - 1));
            return;
        }
        const auto n = static_cast<std::uint32_t>(is_switch.size());
        Link l{static_cast<std::uint32_t>(rng() % n), static_cast<std::uint32_t>(rng() % n),
               static_cast<std::int64_t>(1 + rng() % 50), static_cast<std::int64_t>(10 + rng() % 990)};
        if (l.a == l.b) l.b = (l.b + 1) % n;
        links.push_back(l);
        add_link(cached, l);
    };
    for (int i = 0; i < 4; ++i) grow(true);

    for (int round = 0; round < 40; ++round) {
        grow(rng() % 3 == 0);
        Topology fresh;
        for (std::uint32_t i = 0; i < is_switch.size(); ++i) add_node(fresh, i);
        for (const Link& l : links) add_link(fresh, l);

        const auto n = static_cast<std::uint32_t>(is_switch.size());
        // Source 0 is asked every round; the newest node is a new source.
        std::vector<std::pair<std::uint32_t, std::uint32_t>> queries = {
            {0, n - 1}, {n - 1, 0}, {0, static_cast<std::uint32_t>(rng() % n)}};
        for (int q = 0; q < 6; ++q) {
            queries.emplace_back(static_cast<std::uint32_t>(rng() % n),
                                 static_cast<std::uint32_t>(rng() % n));
        }
        for (const auto& [from, to] : queries) {
            SCOPED_TRACE("round " + std::to_string(round) + " path " +
                         std::to_string(from) + "->" + std::to_string(to));
            // Asked twice: the second answer comes from the table.
            for (int repeat = 0; repeat < 2; ++repeat) {
                const auto got = cached.path(NodeId{from}, NodeId{to});
                const auto want = fresh.path(NodeId{from}, NodeId{to});
                ASSERT_EQ(got.has_value(), want.has_value());
                if (!want) continue;
                EXPECT_EQ(got->latency, want->latency);
                EXPECT_EQ(got->bottleneck.bps(), want->bottleneck.bps());
                EXPECT_EQ(got->hops, want->hops);
            }
        }
    }
}

TEST(Topology, PortBookkeeping) {
    Topology topo;
    const auto a = topo.add_host("a", Ipv4{10, 0, 0, 1});
    EXPECT_FALSE(topo.port_open(a, 80));
    topo.open_port(a, 80);
    EXPECT_TRUE(topo.port_open(a, 80));
    EXPECT_FALSE(topo.port_open(a, 80, Proto::kUdp));
    std::vector<std::uint16_t> closed;
    topo.set_port_closed_callback(
        [&](NodeId, std::uint16_t port, Proto) { closed.push_back(port); });
    topo.close_port(a, 80);
    EXPECT_FALSE(topo.port_open(a, 80));
    topo.close_port(a, 80);  // already closed: no second callback
    topo.set_port_closed_callback(nullptr);
    topo.open_port(a, 81);
    topo.close_port(a, 81);  // callback cleared
    EXPECT_EQ(closed, std::vector<std::uint16_t>{80});
}

// --------------------------------------------------------------- SharedLink

TEST(SharedLink, SingleTransferMatchesAnalytic) {
    sim::Simulation simulation;
    SharedLink link(simulation, sim::mbit_per_sec(8)); // 1 MB/s
    sim::SimTime finished;
    link.start_transfer(1'000'000, [&] { finished = simulation.now(); });
    simulation.run();
    EXPECT_NEAR(finished.seconds(), 1.0, 1e-6);
    EXPECT_EQ(link.bytes_completed(), 1'000'000);
}

TEST(SharedLink, FairSharingSlowsConcurrentTransfers) {
    sim::Simulation simulation;
    SharedLink link(simulation, sim::mbit_per_sec(8));
    sim::SimTime t1;
    sim::SimTime t2;
    link.start_transfer(1'000'000, [&] { t1 = simulation.now(); });
    link.start_transfer(1'000'000, [&] { t2 = simulation.now(); });
    simulation.run();
    // Two equal flows sharing the pipe both finish at ~2 s.
    EXPECT_NEAR(t1.seconds(), 2.0, 1e-3);
    EXPECT_NEAR(t2.seconds(), 2.0, 1e-3);
}

TEST(SharedLink, LateArrivalSharesRemainingCapacity) {
    sim::Simulation simulation;
    SharedLink link(simulation, sim::mbit_per_sec(8)); // 1 MB/s
    sim::SimTime t1;
    sim::SimTime t2;
    link.start_transfer(1'000'000, [&] { t1 = simulation.now(); });
    simulation.schedule(sim::from_seconds(0.5), [&] {
        link.start_transfer(250'000, [&] { t2 = simulation.now(); });
    });
    simulation.run();
    // First flow: 0.5 s alone (500 KB done), then shares: remaining 500 KB at
    // 0.5 MB/s -> 1 s more... but the second flow (250 KB at 0.5 MB/s) ends
    // at t=1.0 s, after which the first finishes its last 250 KB alone.
    EXPECT_NEAR(t2.seconds(), 1.0, 1e-3);
    EXPECT_NEAR(t1.seconds(), 1.25, 1e-3);
}

TEST(SharedLink, ZeroSizeCompletesImmediately) {
    sim::Simulation simulation;
    SharedLink link(simulation, sim::mbit_per_sec(1));
    bool done = false;
    link.start_transfer(0, [&] { done = true; });
    simulation.run();
    EXPECT_TRUE(done);
    EXPECT_EQ(simulation.now(), sim::SimTime::zero());
}

} // namespace
} // namespace tedge::net

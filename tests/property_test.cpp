// Randomized property tests against reference models:
//  - FlowTable vs a brute-force matcher, and its whole API (installs,
//    lookups, expiry, the four removals, removal callbacks) vs a model,
//  - yamlite emit/parse round-trip on random documents,
//  - SharedLink byte conservation and completion-order sanity,
//  - Trace CSV round-trip on random traces.
#include <gtest/gtest.h>

#include <algorithm>

#include "net/flow_table.hpp"
#include "net/link.hpp"
#include "simcore/random.hpp"
#include "simcore/simulation.hpp"
#include "workload/trace.hpp"
#include "yamlite/emitter.hpp"
#include "yamlite/parser.hpp"

namespace tedge {
namespace {

// ----------------------------------------------------- FlowTable vs oracle

net::Packet random_packet(sim::Rng& rng) {
    net::Packet p;
    p.src_ip = net::Ipv4{static_cast<std::uint32_t>(rng.uniform_int(1, 4)), 0, 0,
                         static_cast<std::uint8_t>(rng.uniform_int(1, 4))};
    p.dst_ip = net::Ipv4{static_cast<std::uint32_t>(rng.uniform_int(1, 4)), 0, 0,
                         static_cast<std::uint8_t>(rng.uniform_int(1, 4))};
    p.dst_port = static_cast<std::uint16_t>(rng.uniform_int(1, 4));
    return p;
}

net::FlowEntry random_entry(sim::Rng& rng, std::uint64_t cookie) {
    net::FlowEntry e;
    if (rng.chance(0.5)) e.match.src_ip = random_packet(rng).src_ip;
    if (rng.chance(0.7)) e.match.dst_ip = random_packet(rng).dst_ip;
    if (rng.chance(0.7)) e.match.dst_port = random_packet(rng).dst_port;
    if (rng.chance(0.3)) e.match.proto = net::Proto::kTcp;
    e.priority = static_cast<std::uint16_t>(rng.uniform_int(1, 5) * 100);
    e.cookie = cookie;
    return e;
}

/// Brute-force reference: best = highest priority, then most specific, then
/// ... the table keeps insertion order for full ties, which the oracle
/// reproduces by scanning in insertion order and using strict improvement.
const net::FlowEntry* oracle_best(const std::vector<net::FlowEntry>& entries,
                                  const net::Packet& p) {
    const net::FlowEntry* best = nullptr;
    for (const auto& e : entries) {
        if (!e.match.matches(p)) continue;
        if (best == nullptr || e.priority > best->priority ||
            (e.priority == best->priority &&
             e.match.specificity() > best->match.specificity())) {
            best = &e;
        }
    }
    return best;
}

class FlowTableFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(FlowTableFuzz, MatchesBruteForceOracle) {
    sim::Rng rng(GetParam());
    net::FlowTable table;
    std::vector<net::FlowEntry> reference;
    for (std::uint64_t i = 0; i < 40; ++i) {
        const auto entry = random_entry(rng, i + 1);
        // Mirror the table's overwrite rule in the reference model.
        const auto it = std::find_if(
            reference.begin(), reference.end(), [&](const net::FlowEntry& e) {
                return e.match == entry.match && e.priority == entry.priority;
            });
        if (it != reference.end()) {
            *it = entry;
        } else {
            reference.push_back(entry);
        }
        table.install(entry, sim::SimTime::zero());
    }
    ASSERT_EQ(table.size(), reference.size());

    for (int i = 0; i < 500; ++i) {
        const auto packet = random_packet(rng);
        const auto got = table.lookup(packet, sim::SimTime::zero());
        const auto* want = oracle_best(reference, packet);
        if (want == nullptr) {
            EXPECT_FALSE(got) << "query " << i;
        } else {
            ASSERT_TRUE(got) << "query " << i;
            EXPECT_EQ(got->cookie, want->cookie) << "query " << i;
        }
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, FlowTableFuzz,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8));

// ------------------------------------- FlowTable API vs a brute-force model

/// The table's contract, written the obvious way: entries in install order,
/// every expired entry swept at each lookup, matching by full scan.
class FlowTableModel {
public:
    struct Removal {
        std::uint32_t tag;  ///< unique per install (action.set_dst_ip)
        std::uint64_t cookie;
        bool idle;
        bool operator==(const Removal&) const = default;
    };

    bool install(net::FlowEntry entry, sim::SimTime now) {
        entry.installed_at = now;
        entry.last_used = now;
        entry.packet_count = 0;
        for (auto it = entries_.begin(); it != entries_.end(); ++it) {
            if (it->entry.match != entry.match || it->entry.priority != entry.priority) {
                continue;
            }
            if (!it->entry.expired(now)) {
                it->entry = entry; // keeps its install seq
                return true;
            }
            log(it->entry, now);
            entries_.erase(it);
            break;
        }
        entries_.push_back({entry, next_seq_++});
        return false;
    }

    std::optional<net::FlowEntry> lookup(const net::Packet& packet, sim::SimTime now) {
        expire(now);
        Installed* best = best_match(packet, now);
        if (best == nullptr) {
            ++misses_;
            return std::nullopt;
        }
        best->entry.last_used = now;
        ++best->entry.packet_count;
        ++hits_;
        return best->entry;
    }

    [[nodiscard]] std::optional<net::FlowEntry> peek(const net::Packet& packet,
                                                     sim::SimTime now) {
        const Installed* best = best_match(packet, now);
        return best ? std::optional<net::FlowEntry>(best->entry) : std::nullopt;
    }

    std::size_t expire(sim::SimTime now) {
        std::vector<Installed> gone;
        std::erase_if(entries_, [&](const Installed& e) {
            if (!e.entry.expired(now)) return false;
            gone.push_back(e);
            return true;
        });
        std::sort(gone.begin(), gone.end(), [](const Installed& a, const Installed& b) {
            return std::pair(expiry(a.entry), a.seq) < std::pair(expiry(b.entry), b.seq);
        });
        for (const auto& e : gone) log(e.entry, now);
        return gone.size();
    }

    template <typename Pred>
    std::size_t remove_where(Pred pred) {
        return std::erase_if(entries_, [&](const Installed& e) { return pred(e.entry); });
    }

    [[nodiscard]] std::vector<std::uint32_t> tags() const {
        std::vector<std::uint32_t> out;
        for (const auto& e : entries_) out.push_back(e.entry.action.set_dst_ip->value());
        return out;
    }
    [[nodiscard]] std::size_t size() const { return entries_.size(); }
    [[nodiscard]] std::uint64_t hits() const { return hits_; }
    [[nodiscard]] std::uint64_t misses() const { return misses_; }
    std::vector<Removal> removals;

private:
    struct Installed {
        net::FlowEntry entry;
        std::uint64_t seq;
    };

    static sim::SimTime expiry(const net::FlowEntry& e) {
        sim::SimTime t = sim::SimTime::max();
        if (e.hard_timeout > sim::SimTime::zero()) t = e.installed_at + e.hard_timeout;
        if (e.idle_timeout > sim::SimTime::zero()) {
            t = std::min(t, e.last_used + e.idle_timeout);
        }
        return t;
    }

    void log(const net::FlowEntry& e, sim::SimTime now) {
        const bool hard = e.hard_timeout > sim::SimTime::zero() &&
                          now - e.installed_at >= e.hard_timeout;
        removals.push_back({e.action.set_dst_ip->value(), e.cookie, !hard});
    }

    Installed* best_match(const net::Packet& packet, sim::SimTime now) {
        Installed* best = nullptr;
        for (auto& e : entries_) {
            if (e.entry.expired(now) || !e.entry.match.matches(packet)) continue;
            // Install order breaks full ties: strict improvement only.
            if (best == nullptr || e.entry.priority > best->entry.priority ||
                (e.entry.priority == best->entry.priority &&
                 e.entry.match.specificity() > best->entry.match.specificity())) {
                best = &e;
            }
        }
        return best;
    }

    std::vector<Installed> entries_;
    std::uint64_t next_seq_ = 0;
    std::uint64_t hits_ = 0;
    std::uint64_t misses_ = 0;
};

net::Packet model_packet(sim::Rng& rng) {
    net::Packet p;
    p.src_ip = net::Ipv4{10, 0, 0, static_cast<std::uint8_t>(rng.uniform_int(1, 4))};
    p.dst_ip = net::Ipv4{10, 0, 1, static_cast<std::uint8_t>(rng.uniform_int(1, 3))};
    p.dst_port = static_cast<std::uint16_t>(rng.uniform_int(80, 82));
    p.proto = rng.chance(0.5) ? net::Proto::kTcp : net::Proto::kUdp;
    return p;
}

/// An entry over model_packet()'s small key space, so replacements, ties and
/// shared timeouts are frequent. `tag` identifies the install uniquely.
net::FlowEntry model_entry(sim::Rng& rng, bool exact, std::uint32_t tag) {
    const net::Packet p = model_packet(rng);
    net::FlowEntry e;
    e.match.src_ip = p.src_ip;
    e.match.dst_ip = p.dst_ip;
    e.match.dst_port = p.dst_port;
    e.match.proto = p.proto;
    if (!exact) {
        // Drop one to three fields.
        const int keep = static_cast<int>(rng.uniform_int(1, 7));
        if ((keep & 1) == 0) e.match.src_ip.reset();
        if ((keep & 2) == 0) e.match.dst_ip.reset();
        if ((keep & 4) == 0) e.match.dst_port.reset();
        e.match.proto.reset();
    }
    e.priority = static_cast<std::uint16_t>(rng.uniform_int(1, 3) * 100);
    if (!rng.chance(0.25)) e.idle_timeout = sim::seconds(rng.uniform_int(1, 8));
    if (rng.chance(0.5)) e.hard_timeout = sim::seconds(rng.uniform_int(3, 15));
    e.cookie = rng.uniform_int(1, 5);
    e.action.set_dst_ip = net::Ipv4{tag};
    e.action.forward_to = net::NodeId{static_cast<std::uint32_t>(rng.uniform_int(1, 3))};
    e.action.set_dst_port = static_cast<std::uint16_t>(rng.uniform_int(8000, 8001));
    return e;
}

std::vector<std::uint32_t> table_tags(const net::FlowTable& table) {
    std::vector<std::uint32_t> out;
    for (const auto& e : table.entries()) out.push_back(e.action.set_dst_ip->value());
    return out;
}

class FlowTableDifferential : public ::testing::TestWithParam<std::uint64_t> {};

// Every call of the table API, on a clock that advances 0-3 s per step,
// against FlowTableModel: lookup winners, peek, sizes, hit/miss counts, every
// return value, install order and the removal-callback sequence.
TEST_P(FlowTableDifferential, WholeApiMatchesBruteForceModel) {
    sim::Rng rng(GetParam());
    net::FlowTable table;
    FlowTableModel model;
    std::vector<FlowTableModel::Removal> removals;
    table.set_removed_callback([&removals](const net::FlowEntry& e, bool idle) {
        removals.push_back({e.action.set_dst_ip->value(), e.cookie, idle});
    });
    auto same = [](const std::optional<net::FlowEntry>& got,
                   const std::optional<net::FlowEntry>& want) {
        if (got.has_value() != want.has_value()) return false;
        return !got || (got->cookie == want->cookie &&
                        got->action.set_dst_ip == want->action.set_dst_ip &&
                        got->packet_count == want->packet_count);
    };

    sim::SimTime now = sim::SimTime::zero();
    std::uint32_t tag = 0;
    std::size_t lookups_hit = 0;
    std::size_t replaced = 0;
    std::size_t reported = 0;
    std::size_t reported_at_install = 0;
    for (int step = 0; step < 3000; ++step) {
        now += sim::milliseconds(rng.uniform_int(0, 3000));
        const int op = static_cast<int>(rng.uniform_int(0, 99));
        SCOPED_TRACE(::testing::Message() << "step " << step << " op " << op);
        if (op < 30) {
            const auto entry = model_entry(rng, /*exact=*/op < 24, ++tag);
            const bool was_replaced = table.install(entry, now);
            ASSERT_EQ(was_replaced, model.install(entry, now));
            replaced += was_replaced;
            reported_at_install += removals.size();
        } else if (op < 34) {
            // Re-install an existing match and priority: replacement path.
            const auto live = table.entries();
            if (live.empty()) continue;
            auto entry = live[rng.uniform_int(0, live.size() - 1)];
            entry.action.set_dst_ip = net::Ipv4{++tag};
            if (rng.chance(0.5)) entry.idle_timeout = sim::seconds(rng.uniform_int(1, 8));
            const bool was_replaced = table.install(entry, now);
            ASSERT_EQ(was_replaced, model.install(entry, now));
            replaced += was_replaced;
            reported_at_install += removals.size();
        } else if (op < 78) {
            // Half the lookups aim at a stored entry, so hits (and the idle
            // deadlines they push back) are common.
            auto packet = model_packet(rng);
            if (const auto stored = table.entries(); !stored.empty() && rng.chance(0.5)) {
                const net::FlowMatch& m = stored[rng.uniform_int(0, stored.size() - 1)].match;
                if (m.src_ip) packet.src_ip = *m.src_ip;
                if (m.dst_ip) packet.dst_ip = *m.dst_ip;
                if (m.dst_port) packet.dst_port = *m.dst_port;
                if (m.proto) packet.proto = *m.proto;
            }
            const net::FlowEntry* peeked = table.peek(packet, now);
            ASSERT_TRUE(same(peeked ? std::optional<net::FlowEntry>(*peeked) : std::nullopt,
                             model.peek(packet, now)));
            const auto got = table.lookup(packet, now);
            ASSERT_TRUE(same(got, model.lookup(packet, now)));
            lookups_hit += got.has_value();
        } else if (op < 85) {
            ASSERT_EQ(table.expire(now), model.expire(now));
        } else if (op < 89) {
            const auto entry = model_entry(rng, rng.chance(0.6), 0);
            ASSERT_EQ(table.remove(entry.match), model.remove_where([&](const net::FlowEntry& e) {
                return e.match == entry.match;
            }));
        } else if (op < 93) {
            const std::uint64_t cookie = rng.uniform_int(1, 5);
            ASSERT_EQ(table.remove_by_cookie(cookie),
                      model.remove_where([&](const net::FlowEntry& e) { return e.cookie == cookie; }));
        } else if (op < 96) {
            const net::Ipv4 src = model_packet(rng).src_ip;
            ASSERT_EQ(table.remove_by_src_ip(src),
                      model.remove_where([&](const net::FlowEntry& e) {
                          return e.match.src_ip && *e.match.src_ip == src;
                      }));
        } else {
            const net::NodeId node{static_cast<std::uint32_t>(rng.uniform_int(1, 3))};
            const auto port = static_cast<std::uint16_t>(rng.uniform_int(8000, 8001));
            ASSERT_EQ(table.remove_by_target(node, port),
                      model.remove_where([&](const net::FlowEntry& e) {
                          return e.action.forward_to == node && e.action.set_dst_port == port;
                      }));
        }
        ASSERT_EQ(table.size(), model.size());
        ASSERT_EQ(table.hit_count(), model.hits());
        ASSERT_EQ(table.miss_count(), model.misses());
        ASSERT_EQ(removals, model.removals);
        ASSERT_EQ(table_tags(table), model.tags());
        reported += removals.size();
        removals.clear();
        model.removals.clear();
    }
    // The schedule must reach every path it claims to test.
    EXPECT_GT(lookups_hit, 300u);
    EXPECT_GT(table.miss_count(), 300u);
    EXPECT_GT(replaced, 40u);
    EXPECT_GT(reported, 300u);
    EXPECT_GT(reported_at_install, 5u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, FlowTableDifferential,
                         ::testing::Values(11, 12, 13, 14, 15, 16, 17, 18));

// -------------------------------------------------- yamlite round-trip fuzz

yamlite::Node random_node(sim::Rng& rng, int depth) {
    const double r = rng.uniform01();
    if (depth >= 3 || r < 0.45) {
        // Scalars, including nasty ones the emitter must quote.
        static const char* kScalars[] = {"plain",  "true",   "null", "0",
                                         "a: b",   "# hash", "",     "-dash",
                                         "sp ace", "1.5",    "[x]",  "{a}"};
        return yamlite::Node{
            kScalars[rng.uniform_int(0, std::size(kScalars) - 1)]};
    }
    if (r < 0.7) {
        auto seq = yamlite::Node::make_seq();
        const auto n = rng.uniform_int(0, 4);
        for (int i = 0; i < n; ++i) seq.push_back(random_node(rng, depth + 1));
        return seq;
    }
    auto map = yamlite::Node::make_map();
    const auto n = rng.uniform_int(0, 4);
    for (int i = 0; i < n; ++i) {
        map.set("k" + std::to_string(i), random_node(rng, depth + 1));
    }
    return map;
}

class YamlRoundTripFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(YamlRoundTripFuzz, EmitParseIsIdentity) {
    sim::Rng rng(GetParam());
    for (int i = 0; i < 50; ++i) {
        auto doc = random_node(rng, 0);
        if (doc.is_scalar()) continue; // top level must be a collection
        if (doc.size() == 0) continue;
        const auto text = yamlite::emit(doc);
        const auto reparsed = yamlite::parse(text);
        EXPECT_EQ(doc, reparsed) << "document " << i << ":\n" << text;
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, YamlRoundTripFuzz,
                         ::testing::Values(11, 12, 13, 14, 15));

// ------------------------------------------------- SharedLink conservation

class SharedLinkFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(SharedLinkFuzz, AllBytesDeliveredAndThroughputBounded) {
    sim::Rng rng(GetParam());
    sim::Simulation simulation;
    net::SharedLink link(simulation, sim::mbit_per_sec(80)); // 10 MB/s

    sim::Bytes total = 0;
    int completed = 0;
    int started = 0;
    for (int i = 0; i < 30; ++i) {
        const auto size = rng.uniform_int(1'000, 2'000'000);
        const auto at = sim::from_seconds(rng.uniform(0.0, 2.0));
        total += size;
        ++started;
        simulation.schedule(at, [&link, &completed, size] {
            link.start_transfer(size, [&completed] { ++completed; });
        });
    }
    simulation.run();
    EXPECT_EQ(completed, started);
    EXPECT_EQ(link.bytes_completed(), total);
    // The pipe can never beat its capacity: finishing `total` bytes takes at
    // least total/rate seconds from the first arrival (arrivals start at 0).
    const double min_seconds = static_cast<double>(total) / 10e6;
    EXPECT_GE(simulation.now().seconds() + 1e-6, min_seconds);
}

INSTANTIATE_TEST_SUITE_P(Seeds, SharedLinkFuzz, ::testing::Values(21, 22, 23, 24));

// -------------------------------------------------------- Trace CSV fuzz

class TraceCsvFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(TraceCsvFuzz, CsvRoundTripPreservesEvents) {
    sim::Rng rng(GetParam());
    workload::Trace trace;
    const auto n = rng.uniform_int(1, 200);
    for (int i = 0; i < n; ++i) {
        workload::TraceEvent event;
        event.at = sim::from_ms(rng.uniform(0.0, 300'000.0));
        event.client = static_cast<std::uint32_t>(rng.uniform_int(0, 19));
        event.service = static_cast<std::uint32_t>(rng.uniform_int(0, 41));
        trace.add(event);
    }
    trace.finalize();
    const auto reparsed = workload::Trace::from_csv(trace.to_csv());
    ASSERT_EQ(reparsed.size(), trace.size());
    for (std::size_t i = 0; i < trace.size(); ++i) {
        // Times survive within CSV precision (µs); ids exactly.
        EXPECT_NEAR(reparsed.events()[i].at.ms(), trace.events()[i].at.ms(), 1e-3);
        EXPECT_EQ(reparsed.events()[i].client, trace.events()[i].client);
        EXPECT_EQ(reparsed.events()[i].service, trace.events()[i].service);
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, TraceCsvFuzz, ::testing::Values(31, 32, 33));

} // namespace
} // namespace tedge

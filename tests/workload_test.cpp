// Workload tests: trace model, bigFlows synthesis marginals, request
// streams, metrics collection, and table rendering.
#include <gtest/gtest.h>

#include <algorithm>
#include <optional>
#include <string>
#include <vector>

#include "testbed/c3.hpp"
#include "workload/bigflows.hpp"
#include "workload/metrics.hpp"
#include "workload/runner.hpp"
#include "workload/stream.hpp"
#include "workload/trace.hpp"

namespace tedge::workload {
namespace {

TEST(Trace, FinalizeSortsByTime) {
    Trace trace;
    trace.add({sim::seconds(5), 0, 1});
    trace.add({sim::seconds(1), 2, 0});
    trace.add({sim::seconds(3), 1, 2});
    trace.finalize();
    EXPECT_EQ(trace.events()[0].at, sim::seconds(1));
    EXPECT_EQ(trace.events()[2].at, sim::seconds(5));
    EXPECT_EQ(trace.service_count(), 3u);
    EXPECT_EQ(trace.client_count(), 3u);
    EXPECT_EQ(trace.horizon(), sim::seconds(5));
}

TEST(Trace, CsvRoundTrip) {
    Trace trace;
    trace.add({sim::milliseconds(1500), 3, 7});
    trace.add({sim::milliseconds(200), 1, 2});
    trace.finalize();
    const auto csv = trace.to_csv();
    EXPECT_NE(csv.find("time_ms,client,service"), std::string::npos);
    const auto parsed = Trace::from_csv(csv);
    ASSERT_EQ(parsed.size(), 2u);
    EXPECT_EQ(parsed.events()[0].at, sim::milliseconds(200));
    EXPECT_EQ(parsed.events()[0].client, 1u);
    EXPECT_EQ(parsed.events()[1].service, 7u);
}

TEST(Trace, FromCsvRejectsGarbage) {
    EXPECT_THROW(Trace::from_csv("time_ms,client,service\n1.0,2\n"),
                 std::invalid_argument);
}

TEST(Trace, EmptyTraceBehaviour) {
    Trace trace;
    EXPECT_TRUE(trace.empty());
    EXPECT_EQ(trace.service_count(), 0u);
    EXPECT_EQ(trace.horizon(), sim::SimTime::zero());
    EXPECT_TRUE(trace.requests_per_service().empty());
}

// --------------------------------------------------------------- bigflows

class BigFlowsSweep : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(BigFlowsSweep, PublishedMarginalsHold) {
    BigFlowsOptions options;
    options.seed = GetParam();
    const auto trace = synthesize_bigflows(options);

    // Paper fig. 9: 1708 requests, 42 services, five minutes, >= 20 each.
    EXPECT_EQ(trace.size(), 1708u);
    EXPECT_EQ(trace.service_count(), 42u);
    EXPECT_LE(trace.horizon(), sim::seconds(300));
    const auto per_service = trace.requests_per_service();
    for (const auto count : per_service) EXPECT_GE(count, 20u);
    // Heavy-tailed: the most popular service clearly exceeds the floor.
    EXPECT_GE(*std::max_element(per_service.begin(), per_service.end()), 60u);
    // Clients are within range.
    EXPECT_LE(trace.client_count(), 20u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, BigFlowsSweep, ::testing::Values(1, 2, 3, 17, 42));

TEST(BigFlows, DeterministicPerSeed) {
    BigFlowsOptions options;
    options.seed = 9;
    const auto a = synthesize_bigflows(options);
    const auto b = synthesize_bigflows(options);
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(a.events()[i].at, b.events()[i].at);
        EXPECT_EQ(a.events()[i].client, b.events()[i].client);
        EXPECT_EQ(a.events()[i].service, b.events()[i].service);
    }
}

TEST(BigFlows, DifferentSeedsDiffer) {
    BigFlowsOptions a_options;
    a_options.seed = 1;
    BigFlowsOptions b_options;
    b_options.seed = 2;
    const auto a = synthesize_bigflows(a_options);
    const auto b = synthesize_bigflows(b_options);
    bool any_difference = false;
    for (std::size_t i = 0; i < std::min(a.size(), b.size()); ++i) {
        if (a.events()[i].at != b.events()[i].at) {
            any_difference = true;
            break;
        }
    }
    EXPECT_TRUE(any_difference);
}

TEST(BigFlows, RejectsImpossibleOptions) {
    BigFlowsOptions options;
    options.services = 42;
    options.requests = 100; // < 42 * 20
    EXPECT_THROW(synthesize_bigflows(options), std::invalid_argument);
    options.services = 0;
    EXPECT_THROW(synthesize_bigflows(options), std::invalid_argument);
    options = BigFlowsOptions{};
    options.horizon = sim::seconds(-1);
    EXPECT_THROW(synthesize_bigflows(options), std::invalid_argument);
}

TEST(BigFlows, CustomShapes) {
    BigFlowsOptions options;
    options.services = 5;
    options.requests = 200;
    options.horizon = sim::seconds(60);
    options.clients = 3;
    options.min_requests = 10;
    options.seed = 4;
    const auto trace = synthesize_bigflows(options);
    EXPECT_EQ(trace.size(), 200u);
    EXPECT_EQ(trace.service_count(), 5u);
    EXPECT_LE(trace.client_count(), 3u);
    EXPECT_LE(trace.horizon(), sim::seconds(60));
}

// ---------------------------------------------------------------- streams

TEST(RequestStream, BigFlowsStreamMatchesMaterializedTrace) {
    BigFlowsOptions options;
    options.seed = 7;
    const auto trace = synthesize_bigflows(options);
    BigFlowsStream stream(options);

    ASSERT_EQ(stream.total(), trace.size());
    ASSERT_EQ(stream.horizon(), trace.horizon());
    for (std::size_t i = 0; i < trace.size(); ++i) {
        const auto event = stream.next();
        ASSERT_TRUE(event.has_value()) << "stream ended early at " << i;
        EXPECT_EQ(event->at, trace.events()[i].at) << "index " << i;
        EXPECT_EQ(event->client, trace.events()[i].client) << "index " << i;
        EXPECT_EQ(event->service, trace.events()[i].service) << "index " << i;
    }
    EXPECT_FALSE(stream.next().has_value());
}

/// The stream's oracle: the same draws, sorted by std::sort under
/// Trace::finalize's comparator.
std::vector<TraceEvent> sorted_draws(const BigFlowsOptions& options) {
    std::vector<TraceEvent> events = bigflows_draws(options);
    std::sort(events.begin(), events.end(), [](const TraceEvent& a, const TraceEvent& b) {
        if (a.at != b.at) return a.at < b.at;
        if (a.client != b.client) return a.client < b.client;
        return a.service < b.service;
    });
    return events;
}

void expect_oracle_order(const BigFlowsOptions& options) {
    SCOPED_TRACE(::testing::Message() << options.requests << " requests, " << options.services
                                      << " services, seed " << options.seed);
    const std::vector<TraceEvent> expected = sorted_draws(options);
    ASSERT_EQ(expected.size(), options.requests);
    BigFlowsStream stream(options);
    ASSERT_EQ(stream.total(), expected.size());
    for (std::size_t i = 0; i < expected.size(); ++i) {
        const auto event = stream.next();
        ASSERT_TRUE(event.has_value()) << "stream ended early at " << i;
        ASSERT_EQ(event->at, expected[i].at) << "index " << i;
        ASSERT_EQ(event->client, expected[i].client) << "index " << i;
        ASSERT_EQ(event->service, expected[i].service) << "index " << i;
    }
    EXPECT_FALSE(stream.next().has_value());
}

TEST(BigFlowsStreamOracle, SizesAroundAChunk) {
    const std::size_t chunk = BigFlowsStream::kChunkEvents;
    for (const std::uint64_t seed : {1, 2, 3, 17}) {
        for (const std::size_t requests : {std::size_t{0}, std::size_t{1}, chunk - 1, chunk,
                                           chunk + 1}) {
            BigFlowsOptions options;
            options.services = requests < 42 ? 1 : 42;
            options.min_requests = requests < 42 ? requests : 20;
            options.requests = requests;
            options.seed = seed;
            expect_oracle_order(options);
        }
    }
}

// Ties: with a zero horizon every event arrives at 0, so the order comes
// from the client and then the service; with one client, from the service
// alone.
TEST(BigFlowsStreamOracle, TiesInTimeAndClient) {
    for (const std::uint32_t clients : {1u, 3u, 20u}) {
        BigFlowsOptions options;
        options.services = 5;
        options.requests = 400;
        options.min_requests = 10;
        options.horizon = sim::SimTime{};
        options.clients = clients;
        expect_oracle_order(options);
    }
}

// The three e2ebench workloads' traces at two trace seeds each.
TEST(BigFlowsStreamOracle, WorkloadSizes) {
    struct Shape {
        std::uint32_t services;
        std::size_t requests;
        std::int64_t horizon_s;
    };
    for (const Shape shape : {Shape{42, 600'000, 300}, Shape{420, 56'933, 1000},
                              Shape{126, 25'620, 1500}}) {
        for (const std::uint64_t seed : {4, 24}) {
            BigFlowsOptions options;
            options.services = shape.services;
            options.requests = shape.requests;
            options.horizon = sim::seconds(shape.horizon_s);
            options.seed = seed;
            expect_oracle_order(options);
        }
    }
}

// The stream frees each chunk once its last event is out, while total()
// and horizon() keep answering.
TEST(RequestStream, BigFlowsStreamFreesWhatItHasEmitted) {
    const std::size_t chunk = BigFlowsStream::kChunkEvents;
    BigFlowsOptions options;
    options.requests = 3 * chunk + 100;
    options.seed = 5;
    BigFlowsStream stream(options);
    const auto total = stream.total();
    const auto horizon = stream.horizon();
    ASSERT_EQ(total, options.requests);
    EXPECT_EQ(stream.held(), options.requests);

    std::size_t emitted = 0;
    std::size_t held = stream.held();
    sim::SimTime last{};
    while (const auto event = stream.next()) {
        ++emitted;
        last = event->at;
        ASSERT_LE(stream.held(), held) << "after " << emitted << " events";
        ASSERT_GE(stream.held(), options.requests - emitted);
        ASSERT_LT(stream.held(), options.requests - emitted + chunk);
        if (emitted % chunk == 0) {
            ASSERT_EQ(stream.held(), options.requests - emitted);
        }
        held = stream.held();
    }
    EXPECT_EQ(emitted, options.requests);
    EXPECT_EQ(stream.held(), 0u);
    EXPECT_EQ(stream.total(), total);
    EXPECT_EQ(stream.horizon(), horizon);
    EXPECT_EQ(horizon, last);
    EXPECT_FALSE(stream.next().has_value());
}

TEST(RequestStream, TraceViewStreamsEveryEventInOrder) {
    Trace trace;
    trace.add({sim::seconds(2), 1, 0});
    trace.add({sim::seconds(1), 0, 1});
    trace.finalize();
    TraceView view(trace);
    const auto first = view.next();
    const auto second = view.next();
    ASSERT_TRUE(first && second);
    EXPECT_EQ(first->at, sim::seconds(1));
    EXPECT_EQ(second->at, sim::seconds(2));
    EXPECT_FALSE(view.next().has_value());
    EXPECT_EQ(view.total(), trace.size());
    EXPECT_EQ(view.horizon(), trace.horizon());
}

TEST(RequestStream, PoissonStreamDeterministicOrderedAndBounded) {
    PoissonStream::Options options;
    options.services = 8;
    options.clients = 5;
    options.limit = 2000;
    options.seed = 11;

    PoissonStream a(options);
    PoissonStream b(options);
    sim::SimTime previous = sim::SimTime::zero();
    std::size_t emitted = 0;
    while (const auto event = a.next()) {
        const auto twin = b.next();
        ASSERT_TRUE(twin.has_value());
        EXPECT_EQ(event->at, twin->at);
        EXPECT_EQ(event->client, twin->client);
        EXPECT_EQ(event->service, twin->service);
        EXPECT_GE(event->at, previous); // nondecreasing merge
        EXPECT_LT(event->service, options.services);
        EXPECT_LT(event->client, options.clients);
        previous = event->at;
        ++emitted;
    }
    EXPECT_EQ(emitted, options.limit);
    EXPECT_FALSE(b.next().has_value());
}

TEST(RequestStream, PoissonStreamCoversAllServices) {
    PoissonStream::Options options;
    options.services = 4;
    options.limit = 1000;
    PoissonStream stream(options);
    std::vector<std::size_t> hits(options.services, 0);
    while (const auto event = stream.next()) ++hits[event->service];
    for (std::size_t s = 0; s < hits.size(); ++s) {
        EXPECT_GT(hits[s], 0u) << "service " << s << " never arrived";
    }
}

// ---------------------------------------------------------------- metrics

TEST(MetricsCollector, RecordsAndSeries) {
    MetricsCollector metrics;
    RequestRecord ok_record;
    ok_record.service = "svc0";
    ok_record.ok = true;
    ok_record.time_total = sim::milliseconds(10);
    metrics.add(ok_record);
    metrics.series("svc0").add_time(ok_record.time_total);

    RequestRecord failed;
    failed.service = "svc0";
    failed.ok = false;
    metrics.add(failed);

    EXPECT_EQ(metrics.count(), 2u);
    EXPECT_EQ(metrics.failures(), 1u);
    ASSERT_NE(metrics.find_series("svc0"), nullptr);
    EXPECT_DOUBLE_EQ(metrics.find_series("svc0")->median(), 10.0);
    EXPECT_EQ(metrics.find_series("nope"), nullptr);
    EXPECT_EQ(metrics.tags().size(), 1u);
    // A record's name outlives the collector's records.
    const RequestRecord kept = metrics.records().front();
    metrics.clear();
    EXPECT_EQ(metrics.count(), 0u);
    EXPECT_EQ(kept.service, "svc0");
}

TEST(ServiceName, OneNameOneHandle) {
    static_assert(sizeof(ServiceName) == 8);
    const ServiceName a("service-name-test");
    ServiceName b;
    EXPECT_TRUE(b.str().empty());
    EXPECT_EQ(b, ServiceName(""));
    b = std::string("service-name-") + "test";
    EXPECT_EQ(a, b);
    EXPECT_EQ(&a.str(), &b.str());
    EXPECT_EQ(a, "service-name-test");
    EXPECT_EQ(a, std::string("service-name-test"));
    const std::string& spelling = a;
    EXPECT_EQ(spelling, "service-name-test");
    EXPECT_FALSE(a == ServiceName("service-name-other"));
    EXPECT_FALSE(a == "service-name-tes");
    // A tag interns its name once; its records carry that handle.
    const RequestTag tag("service-name-test");
    EXPECT_EQ(tag.name, a);
}

// A replay binds each service's series at that service's first successful
// completion: service 1's address is registered only 5 s into the replay,
// so its first requests fail and its series appears with its first success.
TEST(TraceRunnerSeries, ServiceSeriesStartsAtFirstSuccessInCompletionOrder) {
    testbed::C3Options options;
    options.with_k8s = false;
    options.controller.scale_down_idle = false;
    auto tb = testbed::build_c3(options);
    auto& platform = tb->platform;
    const auto& nginx = testbed::service_by_key("nginx");
    platform.register_service(nginx.address, nginx.yaml);
    const net::ServiceAddress late{net::Ipv4{203, 0, 113, 77}, nginx.address.port};

    Trace trace;
    for (int i = 0; i < 40; ++i) {
        trace.add({.at = sim::milliseconds(500 * i),
                   .client = static_cast<std::uint32_t>(i % 3),
                   .service = static_cast<std::uint32_t>(i % 2)});
    }
    trace.finalize();
    auto& sim = platform.simulation();
    sim.schedule_at(sim.now() + sim::seconds(5),
                    [&] { platform.register_service(late, nginx.yaml); });

    TraceRunner runner(platform, tb->clients);
    TraceReplayOptions replay;
    replay.addresses = {nginx.address, late};
    replay.request_sizes = {nginx.request_size};
    const MetricsCollector& metrics = runner.replay(trace, replay);

    std::vector<double> expected0;
    std::vector<double> expected1;
    std::size_t failed1 = 0;
    const ServiceName svc0("svc0");
    const ServiceName svc1("svc1");
    for (const RequestRecord& record : metrics.records()) {
        // Every record carries its tag's one handle.
        EXPECT_TRUE(record.service == svc0 || record.service == svc1);
        if (record.service == "svc1" && !record.ok) {
            ++failed1;
            // Nothing succeeded for svc1 before this failure.
            EXPECT_TRUE(expected1.empty());
        }
        if (!record.ok) continue;
        (record.service == "svc0" ? expected0 : expected1)
            .push_back(record.time_total.ms());
    }
    ASSERT_EQ(metrics.count(), 40u);
    EXPECT_GT(failed1, 0u);
    ASSERT_FALSE(expected1.empty());
    ASSERT_NE(metrics.find_series("svc0"), nullptr);
    ASSERT_NE(metrics.find_series("svc1"), nullptr);
    // Samples in completion order, one per success.
    EXPECT_EQ(metrics.find_series("svc0")->samples(), expected0);
    EXPECT_EQ(metrics.find_series("svc1")->samples(), expected1);
    EXPECT_EQ(metrics.tags(), (std::vector<std::string>{"svc0", "svc1"}));
}

// A tag whose requests all fail has no series.
TEST(TraceRunnerSeries, ServiceThatNeverSucceedsHasNoSeries) {
    testbed::C3Options options;
    options.with_k8s = false;
    auto tb = testbed::build_c3(options);
    const auto& nginx = testbed::service_by_key("nginx");
    const net::ServiceAddress nowhere{net::Ipv4{203, 0, 113, 78}, nginx.address.port};

    Trace trace;
    for (int i = 0; i < 4; ++i) {
        trace.add({.at = sim::milliseconds(100 * i), .client = 0, .service = 0});
    }
    trace.finalize();
    TraceRunner runner(tb->platform, tb->clients);
    TraceReplayOptions replay;
    replay.addresses = {nowhere};
    replay.drain_slack = sim::seconds(30);
    const MetricsCollector& metrics = runner.replay(trace, replay);
    EXPECT_EQ(metrics.count(), 4u);
    EXPECT_EQ(metrics.failures(), 4u);
    EXPECT_EQ(metrics.find_series("svc0"), nullptr);
    EXPECT_TRUE(metrics.tags().empty());
}

TEST(TextTable, AlignsColumns) {
    TextTable table({"Name", "value"});
    table.add_row({"a", "1"});
    table.add_row({"longer-name", "123456"});
    table.add_row({"short"}); // missing cells padded
    const auto text = table.str();
    EXPECT_NE(text.find("Name"), std::string::npos);
    EXPECT_NE(text.find("longer-name"), std::string::npos);
    EXPECT_NE(text.find("------"), std::string::npos);
    // Every line has the same length (fixed-width table).
    std::size_t first_line_len = text.find('\n');
    EXPECT_GT(first_line_len, 0u);
}

TEST(TextTable, NumFormatting) {
    EXPECT_EQ(TextTable::num(3.14159, 2), "3.14");
    EXPECT_EQ(TextTable::num(1000.0, 0), "1000");
}

} // namespace
} // namespace tedge::workload

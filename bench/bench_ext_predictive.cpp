// Extension bench (paper §I + §VII): proactive (predictive) deployment in
// combination with on-demand deployment. The paper argues prediction can
// never be 100% right -- on-demand deployment covers the misses. This bench
// replays the bigFlows-like trace with and without the EWMA predictor
// pre-warming popular services and reports how many requests still hit a
// cold (deploying) service.
#include <benchmark/benchmark.h>

#include <iostream>

#include "common.hpp"
#include "core/predictor.hpp"
#include "workload/runner.hpp"

namespace {

using namespace tedge;

struct PredictiveResult {
    std::size_t cold_hits = 0;       ///< requests that waited on a deployment
    std::size_t requests = 0;
    double p95_ms = 0;
    double median_ms = 0;
    std::uint64_t predeploys = 0;
};

PredictiveResult run(bool with_predictor, std::uint64_t seed) {
    testbed::C3Options c3;
    c3.seed = seed;
    c3.with_k8s = false;
    c3.controller.flow_memory.idle_timeout = sim::seconds(900);
    c3.controller.dispatcher.switch_idle_timeout = sim::seconds(900);
    c3.controller.scale_down_idle = false;
    auto testbed = build_c3(c3);
    auto& platform = testbed->platform;

    const auto& service = testbed::service_by_key("nginx");
    std::vector<net::ServiceAddress> addresses;
    for (std::uint32_t i = 0; i < 16; ++i) {
        net::ServiceAddress address{
            net::Ipv4{static_cast<std::uint32_t>(net::Ipv4{203, 0, 122, 10}.value() + i)},
            service.address.port};
        platform.register_service(address, service.yaml);
        addresses.push_back(address);
    }

    // Pre-pull the image (both variants), isolating the deployment effect.
    const auto* annotated = platform.service_registry().lookup(addresses[0]);
    bool pulled = false;
    testbed->docker->ensure_image(annotated->spec,
                                  [&](bool ok, const container::PullTiming&) {
                                      pulled = ok;
                                  });
    platform.simulation().run_until(sim::seconds(60));
    if (!pulled) throw std::runtime_error("pre-pull failed");

    workload::BigFlowsOptions trace_options;
    trace_options.services = 16;
    trace_options.requests = 800;
    trace_options.horizon = sim::seconds(300);
    trace_options.clients = static_cast<std::uint32_t>(testbed->clients.size());
    trace_options.seed = seed;
    const auto trace = workload::synthesize_bigflows(trace_options);

    std::unique_ptr<core::PredictiveDeployer> predictor;
    if (with_predictor) {
        core::PredictorConfig config;
        config.period = sim::seconds(5);
        config.decay = 0.8;
        config.top_k = 8;
        config.min_score = 0.3;
        predictor = std::make_unique<core::PredictiveDeployer>(
            platform.simulation(), platform.deployment_engine(), *testbed->docker,
            platform.service_registry(), config);
        // The predictor sees the arrivals as they happen (feed from the
        // trace replay itself, one observation per scheduled request).
        for (const auto& event : trace.events()) {
            platform.simulation().schedule_at(
                platform.simulation().now() + event.at,
                [&predictor, &addresses, event] {
                    predictor->observe(addresses[event.service]);
                });
        }
    }

    workload::TraceRunner runner(platform, testbed->clients);
    workload::TraceReplayOptions replay;
    replay.addresses = addresses;
    replay.request_sizes = {service.request_size};
    auto& metrics = runner.replay(trace, replay);

    PredictiveResult result;
    result.requests = metrics.records().size();
    sim::SampleSet all;
    for (const auto& record : metrics.records()) {
        if (!record.ok) continue;
        all.add_time(record.time_total);
        if (record.time_total > sim::milliseconds(100)) ++result.cold_hits;
    }
    result.median_ms = all.median();
    result.p95_ms = all.p95();
    if (predictor) result.predeploys = predictor->deploys_triggered();
    return result;
}

void print_comparison() {
    using workload::TextTable;
    bench::print_header(
        "Extension -- predictive pre-deployment vs pure on-demand (paper §I/§VII)",
        "proactive deployment absorbs most cold hits; on-demand deployment "
        "covers the prediction misses (100% hit rate is impossible)");

    const auto on_demand = run(false, 5);
    const auto predictive = run(true, 5);

    TextTable table({"Policy", "requests", "cold hits", "median [ms]", "p95 [ms]",
                     "pre-deployments"});
    table.add_row({"on-demand only", std::to_string(on_demand.requests),
                   std::to_string(on_demand.cold_hits),
                   TextTable::num(on_demand.median_ms, 2),
                   TextTable::num(on_demand.p95_ms, 1), "0"});
    table.add_row({"predictive + on-demand", std::to_string(predictive.requests),
                   std::to_string(predictive.cold_hits),
                   TextTable::num(predictive.median_ms, 2),
                   TextTable::num(predictive.p95_ms, 1),
                   std::to_string(predictive.predeploys)});
    std::cout << table.str();
}

void BM_PredictiveReplay(benchmark::State& state) {
    std::uint64_t seed = 55;
    for (auto _ : state) {
        auto r = run(true, seed++);
        benchmark::DoNotOptimize(r);
    }
}
BENCHMARK(BM_PredictiveReplay)->Unit(benchmark::kMillisecond);

} // namespace

int main(int argc, char** argv) {
    print_comparison();
    benchmark::Initialize(&argc, argv);
    benchmark::RunSpecifiedBenchmarks();
    return 0;
}

// Ablation (paper §IV-A): on-demand deployment WITH waiting vs WITHOUT
// waiting. With a warm instance in a farther edge, the without-waiting
// policy answers the first request from there immediately while the optimal
// edge deploys in the background; with-waiting holds the first request until
// the nearby instance is up.
#include <benchmark/benchmark.h>

#include <iostream>

#include "common.hpp"
#include "workload/http_client.hpp"

namespace {

struct WaitingResult {
    double first_request_ms = 0;
    double optimal_ready_s = 0;   ///< when the near-edge instance was serving
    bool first_from_far = false;
};

WaitingResult run(bool wait, std::uint64_t seed) {
    using namespace tedge;
    testbed::C3Options c3;
    c3.seed = seed;
    c3.with_k8s = false;
    c3.with_far_edge = true;
    c3.controller.scheduler = sdn::kProximityScheduler;
    c3.controller.scheduler_params["wait"] = yamlite::Node{wait};
    c3.controller.scale_down_idle = false;
    auto testbed = build_c3(c3);
    auto& platform = testbed->platform;
    testbed->register_table1_services();

    const auto& nginx = testbed::service_by_key("nginx");
    const auto* annotated = platform.service_registry().lookup(nginx.address);

    // Warm instance at the far edge.
    bool warm = false;
    platform.deployment_engine().ensure(
        *testbed->far_edge, annotated->spec, {},
        [&](bool ok, const orchestrator::InstanceInfo&) { warm = ok; });
    platform.simulation().run_until(sim::seconds(120));
    if (!warm) throw std::runtime_error("far-edge warmup failed");
    platform.deployment_engine().clear_records();

    WaitingResult result;
    bool done = false;
    const sim::SimTime t0 = platform.simulation().now();
    platform.http_request(testbed->clients[0], nginx.address, 120,
                          [&](const net::HttpResult& r) {
                              if (!r.ok) throw std::runtime_error(std::string(r.error));
                              result.first_request_ms = r.time_total.ms();
                              result.first_from_far =
                                  r.server_node == testbed->far_edge_host;
                              done = true;
                          });
    bench::drain_phase(platform.simulation(), [&] { return done; });
    // Wait until the near edge serves (or give up after two minutes).
    const sim::SimTime deadline = t0 + sim::seconds(120);
    bench::drain_phase(
        platform.simulation(),
        [&] {
            return platform.simulation().now() >= deadline ||
                   !testbed->docker->ready_instances(annotated->spec.name).empty();
        },
        sim::milliseconds(100));
    result.optimal_ready_s = (platform.simulation().now() - t0).seconds();
    return result;
}

void print_ablation() {
    using namespace tedge;
    using workload::TextTable;
    bench::print_header(
        "Ablation -- on-demand deployment WITH vs WITHOUT waiting (paper §IV-A)",
        "without waiting: first request answered from a farther edge at once "
        "while the optimal edge deploys in parallel; with waiting: the first "
        "request is held until the nearby instance is up");

    const auto with_wait = run(true, 11);
    const auto without_wait = run(false, 11);

    TextTable table({"Policy", "first request [ms]", "answered from",
                     "optimal edge serving after [s]"});
    table.add_row({"with waiting", TextTable::num(with_wait.first_request_ms, 0),
                   with_wait.first_from_far ? "far edge" : "near edge",
                   TextTable::num(with_wait.optimal_ready_s, 2)});
    table.add_row({"without waiting",
                   TextTable::num(without_wait.first_request_ms, 0),
                   without_wait.first_from_far ? "far edge" : "near edge",
                   TextTable::num(without_wait.optimal_ready_s, 2)});
    std::cout << table.str();
}

void BM_WithoutWaitingFirstRequest(benchmark::State& state) {
    std::uint64_t seed = 60;
    for (auto _ : state) {
        auto r = run(false, seed++);
        benchmark::DoNotOptimize(r);
    }
}
BENCHMARK(BM_WithoutWaitingFirstRequest)->Unit(benchmark::kMillisecond);

} // namespace

int main(int argc, char** argv) {
    print_ablation();
    benchmark::Initialize(&argc, argv);
    benchmark::RunSpecifiedBenchmarks();
    return 0;
}

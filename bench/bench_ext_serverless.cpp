// Extension bench (paper §VIII future work + Gackstatter et al. [7]):
// containers vs serverless (WASM) side-by-side behind the same transparent
// access controller. Compares the first-request (cold) and warm-request
// latencies of the same logical service deployed as Docker container,
// Kubernetes pod, or WASM function.
#include <benchmark/benchmark.h>

#include <iostream>

#include "common.hpp"
#include "core/edge_platform.hpp"
#include "testbed/calibration.hpp"

namespace {

using namespace tedge;

struct ColdWarm {
    double cold_ms = 0;
    double warm_ms = 0;
};

/// Build a platform with exactly one cluster of `kind` and measure the first
/// (deploying) and a subsequent (warm) request. Images/modules pre-pulled.
ColdWarm measure(const std::string& kind, std::uint64_t seed) {
    core::EdgePlatformConfig platform_config;
    platform_config.seed = seed;
    core::EdgePlatform platform(platform_config);
    const auto client = platform.add_client("ue", net::Ipv4{10, 0, 1, 1});
    const auto edge = platform.add_edge_host("edge", net::Ipv4{10, 0, 0, 2}, 12);
    platform.add_cloud();

    auto& hub = platform.add_registry(testbed::calibration::docker_hub());

    // The same logical microservice in both worlds: a container image (tens
    // of MiB) and a WASM module (sub-MiB), same request behaviour.
    container::Image image;
    image.ref = *container::ImageRef::parse("svc:1");
    image.layers = container::make_layers("svc", sim::mib(40), 4);
    hub.put(image);
    container::Image module;
    module.ref = *container::ImageRef::parse("svc-wasm:1");
    module.layers = container::make_layers("svc-wasm", sim::kib(700), 1);
    hub.put(module);

    container::AppProfile app;
    app.name = "svc";
    app.init_median = sim::milliseconds(40);
    app.service_median = sim::microseconds(200);
    app.response_size = 512;
    app.port = 8080;
    platform.add_app_profile("svc:1", app);
    platform.add_app_profile("svc-wasm:1", app);

    std::string image_name = "svc:1";
    if (kind == "wasm") {
        platform.add_faas_cluster("edge-cluster", edge);
        image_name = "svc-wasm:1";
    } else if (kind == "docker") {
        platform.add_docker_cluster("edge-cluster", edge,
                                    testbed::calibration::docker_config(),
                                    testbed::calibration::runtime_costs(),
                                    testbed::calibration::puller_config());
    } else {
        platform.add_k8s_cluster("edge-cluster", {edge},
                                 testbed::calibration::k8s_config());
    }

    const net::ServiceAddress address{net::Ipv4{203, 0, 113, 80}, 8080};
    platform.register_service(address, R"(
kind: Deployment
spec:
  template:
    spec:
      containers:
        - name: svc
          image: )" + image_name + R"(
          ports:
            - containerPort: 8080
)");
    sdn::ControllerConfig controller;
    controller.scale_down_idle = false;
    platform.start_controller(edge, controller);

    // Pre-pull so the comparison isolates Create + Scale Up + cold start.
    const auto* annotated = platform.service_registry().lookup(address);
    if (annotated == nullptr) throw std::runtime_error("registration failed");
    bool pulled = false;
    platform.clusters().front()->ensure_image(
        annotated->spec,
        [&](bool ok, const container::PullTiming&) { pulled = ok; });
    platform.simulation().run_until(sim::seconds(120));
    if (!pulled) throw std::runtime_error("pre-pull failed");

    ColdWarm result;
    bool done = false;
    platform.http_request(client, address, 100, [&](const net::HttpResult& r) {
        if (!r.ok) throw std::runtime_error(std::string(r.error));
        result.cold_ms = r.time_total.ms();
        done = true;
    });
    bench::drain_phase(platform.simulation(), [&] { return done; });
    done = false;
    platform.simulation().schedule(sim::seconds(1), [&] {
        platform.http_request(client, address, 100, [&](const net::HttpResult& r) {
            if (!r.ok) throw std::runtime_error(std::string(r.error));
            result.warm_ms = r.time_total.ms();
            done = true;
        });
    });
    bench::drain_phase(platform.simulation(), [&] { return done; });
    return result;
}

void print_comparison() {
    using workload::TextTable;
    bench::print_header(
        "Extension -- containers vs serverless (WASM) side by side (paper "
        "§VIII)",
        "WASM cold starts are milliseconds (Gackstatter et al. [7]) vs "
        "hundreds of ms (Docker) or seconds (K8s); warm requests are "
        "equivalent");

    TextTable table({"Deployment", "first request [ms]", "warm request [ms]"});
    for (const auto& kind : {"docker", "k8s", "wasm"}) {
        const auto r = measure(kind, 21);
        table.add_row({kind, TextTable::num(r.cold_ms, 1),
                       TextTable::num(r.warm_ms, 2)});
    }
    std::cout << table.str();
}

void BM_WasmColdPath(benchmark::State& state) {
    std::uint64_t seed = 31;
    for (auto _ : state) {
        auto r = measure("wasm", seed++);
        benchmark::DoNotOptimize(r);
    }
}
BENCHMARK(BM_WasmColdPath)->Unit(benchmark::kMillisecond);

} // namespace

int main(int argc, char** argv) {
    print_comparison();
    benchmark::Initialize(&argc, argv);
    benchmark::RunSpecifiedBenchmarks();
    return 0;
}

// Microbenchmarks for the framework's hot paths: event queue, flow-table
// lookup and churn at realistic table sizes, the k8s endpoints sync, one
// warm HTTP request end to end, scheduler decisions, YAML parsing, and
// statistics. These are real-time benchmarks of the simulator itself (not
// simulated time) -- they bound how fast experiments run.
#include <benchmark/benchmark.h>

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "alloc_counter.hpp"
#include "net/flow_table.hpp"
#include "orchestrator/k8s/api_server.hpp"
#include "orchestrator/k8s/controller_manager.hpp"
#include "sdn/schedulers/proximity.hpp"
#include "simcore/event_queue.hpp"
#include "simcore/metrics_registry.hpp"
#include "simcore/random.hpp"
#include "simcore/simulation.hpp"
#include "simcore/stats.hpp"
#include "testbed/c3.hpp"
#include "workload/http_client.hpp"
#include "yamlite/emitter.hpp"
#include "yamlite/parser.hpp"

namespace {

using namespace tedge;

// --------------------------------------------------------------------------
// Event queue: slab 4-ary heap.

/// Burst fill-and-drain of n random timestamps, advancing the window by one
/// second per iteration.
void BM_EventQueuePushPop(benchmark::State& state) {
    sim::EventQueue queue;
    sim::Rng rng(1);
    const auto n = static_cast<std::size_t>(state.range(0));
    std::int64_t base = 0;
    for (auto _ : state) {
        for (std::size_t i = 0; i < n; ++i) {
            queue.push(sim::SimTime{base + sim::from_seconds(rng.uniform(0, 1)).ns()},
                       [] {});
        }
        while (!queue.empty()) queue.pop();
        base += 1'000'000'000;
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                            static_cast<std::int64_t>(n));
}
BENCHMARK(BM_EventQueuePushPop)->Arg(64)->Arg(1024)->Arg(16384);

/// One near-term push/pop per iteration over a resident population of
/// far-future timers: the heap pays O(log residents) per operation. No
/// bench, example or e2ebench workload holds more than a few thousand
/// pending events, since per-flow expiry lives in FlowMemory's buckets and
/// the FlowTable sweep.
void BM_EventQueueSteadyChurn(benchmark::State& state) {
    sim::EventQueue queue;
    const auto residents = static_cast<std::size_t>(state.range(0));
    queue.reserve(residents + 2);
    sim::Rng rng(1);
    for (std::size_t i = 0; i < residents; ++i) {
        queue.push(sim::seconds(3600) + sim::from_seconds(rng.uniform(0, 3600)),
                   [] {});
    }
    std::int64_t now = 0;
    for (auto _ : state) {
        queue.push(sim::SimTime{now += 1000}, [] {});
        auto popped = queue.pop();
        benchmark::DoNotOptimize(popped.first);
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_EventQueueSteadyChurn)->Arg(1024)->Arg(65536)->Arg(1 << 20);

/// Growth-stall delta of EventQueue::reserve(): filling a fresh queue with n
/// events, with and without pre-sizing the heap array (slab chunks are
/// allocated as slots are first needed either way).
void BM_EventQueueFill(benchmark::State& state) {
    const auto n = static_cast<std::size_t>(state.range(0));
    const bool reserved = state.range(1) != 0;
    for (auto _ : state) {
        sim::EventQueue queue;
        if (reserved) queue.reserve(n);
        for (std::size_t i = 0; i < n; ++i) {
            queue.push(sim::SimTime{static_cast<std::int64_t>(i)}, [] {});
        }
        benchmark::DoNotOptimize(queue.size());
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                            static_cast<std::int64_t>(n));
}
BENCHMARK(BM_EventQueueFill)->Args({65536, 0})->Args({65536, 1});

void BM_SimulationNestedEvents(benchmark::State& state) {
    for (auto _ : state) {
        sim::Simulation simulation;
        int depth = 0;
        std::function<void()> chain = [&] {
            if (++depth < 1000) simulation.schedule(sim::microseconds(1), chain);
        };
        simulation.schedule(sim::microseconds(1), chain);
        simulation.run();
        benchmark::DoNotOptimize(depth);
    }
    // 1000 events scheduled and fired through the full Simulation loop.
    state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * 1000);
}
BENCHMARK(BM_SimulationNestedEvents);

/// One callback on a fresh Simulation schedules 4,096 events, which then
/// run: the slab grows by chunks while that callback runs in its slot.
void BM_ScheduleFanOut(benchmark::State& state) {
    constexpr int kFanOut = 4096;
    for (auto _ : state) {
        sim::Simulation simulation;
        std::int64_t sum = 0;
        simulation.schedule(sim::microseconds(1), [&simulation, &sum] {
            for (int i = 0; i < kFanOut; ++i) {
                simulation.schedule(sim::microseconds(1 + i % 64), [&sum, i] { sum += i; });
            }
        });
        simulation.run();
        benchmark::DoNotOptimize(sum);
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * (kFanOut + 1));
}
BENCHMARK(BM_ScheduleFanOut);

// --------------------------------------------------------------------------
// Flow table: exact-match index and wildcard fallback.

/// `n` fully-specified entries (src, dst, port, proto all concrete), the
/// shape the dispatcher installs per accepted connection.
net::FlowTable make_exact_table(std::size_t n) {
    net::FlowTable table;
    for (std::size_t i = 0; i < n; ++i) {
        net::FlowEntry entry;
        entry.match.src_ip = net::Ipv4{192, 168, static_cast<std::uint8_t>(i >> 8),
                                       static_cast<std::uint8_t>(i & 0xff)};
        entry.match.dst_ip = net::Ipv4{10, 0, 0, static_cast<std::uint8_t>(i % 250)};
        entry.match.dst_port = 80;
        entry.match.proto = net::Proto::kTcp;
        entry.cookie = i;
        table.install(entry, sim::SimTime::zero());
    }
    return table;
}

net::Packet exact_packet(std::size_t n) {
    const std::size_t i = n / 2;
    net::Packet packet;
    packet.src_ip = net::Ipv4{192, 168, static_cast<std::uint8_t>(i >> 8),
                              static_cast<std::uint8_t>(i & 0xff)};
    packet.dst_ip = net::Ipv4{10, 0, 0, static_cast<std::uint8_t>(i % 250)};
    packet.dst_port = 80;
    packet.proto = net::Proto::kTcp;
    return packet;
}

void BM_FlowTableLookup(benchmark::State& state) {
    const auto n = static_cast<std::size_t>(state.range(0));
    net::FlowTable table = make_exact_table(n);
    const net::Packet packet = exact_packet(n);
    for (auto _ : state) {
        benchmark::DoNotOptimize(table.lookup(packet, sim::SimTime::zero()));
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_FlowTableLookup)->Arg(16)->Arg(256)->Arg(2048);

/// Same table shape, but the packet only matches a low-specificity wildcard
/// entry -- exercises the fallback scan over non-exact rules.
void BM_FlowTableLookupWildcard(benchmark::State& state) {
    const auto n = static_cast<std::size_t>(state.range(0));
    net::FlowTable table = make_exact_table(n);
    net::FlowEntry fallback;
    fallback.match.dst_port = 8080;
    fallback.priority = 1;
    table.install(fallback, sim::SimTime::zero());
    net::Packet packet;
    packet.src_ip = net::Ipv4{172, 16, 0, 1};
    packet.dst_ip = net::Ipv4{10, 0, 0, 7};
    packet.dst_port = 8080;
    for (auto _ : state) {
        benchmark::DoNotOptimize(table.lookup(packet, sim::SimTime::zero()));
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_FlowTableLookupWildcard)->Arg(16)->Arg(256)->Arg(2048);

/// Steady per-flow churn at `n` live exact entries, the switch's regime under
/// short idle timeouts: each iteration advances the clock, installs one
/// entry and looks up the entry installed n/4 iterations earlier, which
/// pushes its idle deadline back. Every entry is touched once, at age
/// idle/3, and so lives 4/3 idle; stepping the clock by that over n keeps
/// n entries live and expires about one per iteration. The per-iteration
/// cost should not grow with n.
void BM_FlowTableChurn(benchmark::State& state) {
    const auto n = static_cast<std::uint32_t>(state.range(0));
    const sim::SimTime idle = sim::seconds(10);
    const sim::SimTime step{idle.ns() * 4 / 3 / n};
    net::FlowTable table;
    sim::SimTime now = sim::SimTime::zero();
    std::uint32_t k = 0;
    auto churn = [&] {
        now += step;
        net::FlowEntry entry;
        entry.match.src_ip = net::Ipv4{++k};
        entry.match.dst_ip = net::Ipv4{10, 0, 0, 1};
        entry.match.dst_port = 80;
        entry.match.proto = net::Proto::kTcp;
        entry.idle_timeout = idle;
        table.install(entry, now);
        net::Packet packet;
        packet.src_ip = net::Ipv4{k > n / 4 ? k - n / 4 : k};
        packet.dst_ip = net::Ipv4{10, 0, 0, 1};
        packet.dst_port = 80;
        packet.proto = net::Proto::kTcp;
        return table.lookup(packet, now);
    };
    for (std::uint32_t i = 0; i < 2 * n; ++i) churn(); // reach steady state
    for (auto _ : state) {
        benchmark::DoNotOptimize(churn());
    }
    state.counters["live_entries"] = static_cast<double>(table.size());
    state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_FlowTableChurn)->Arg(1000)->Arg(10000)->Arg(100000);

// --------------------------------------------------------------------------
// Kubernetes endpoints controller.

/// `n` services with one ready pod each; each iteration flips one pod's
/// readiness and drains the control loop: the endpoints sync the pod's watch
/// event triggers, the endpoints write, and the sync that write's watch
/// event triggers. The pod write marks only its own service dirty, and a
/// sync recomputes the dirty services from their label groups, so the cost
/// per iteration stays flat in n (every service starts dirty, which the
/// first iteration's sync pays once).
void BM_EndpointsSync(benchmark::State& state) {
    namespace k8s = orchestrator::k8s;
    const auto n = static_cast<std::size_t>(state.range(0));
    sim::Simulation simulation;
    k8s::ApiServer api(simulation);
    // Populated before the controller watches, so setup schedules no syncs.
    std::vector<std::string> pods;
    for (std::size_t i = 0; i < n; ++i) {
        const std::string name = "svc-" + std::to_string(i);
        k8s::PodObj pod;
        pod.name = name + "-rs-0";
        pod.owner_rs = name + "-rs";
        pod.spec.name = name;
        pod.spec.labels = {{"app", name}, {"edge.service", name}};
        pod.node = net::NodeId{1};
        pod.phase = k8s::PodPhase::kRunning;
        pod.ready = true;
        pod.pod_port = static_cast<std::uint16_t>(20000 + i);
        k8s::ServiceObj service;
        service.name = name;
        service.selector = {{"edge.service", name}};
        service.endpoints = {{pod.name, pod.node, pod.pod_port}};
        pods.push_back(pod.name);
        api.pods().upsert(pod.name, pod);
        api.services().upsert(service.name, service);
    }
    k8s::ControllerManager controllers(simulation, api);
    controllers.start();
    simulation.run();
    std::size_t next = 0;
    for (auto _ : state) {
        k8s::PodObj pod = *api.pods().get(pods[next]);
        pod.ready = !pod.ready;
        api.pods().upsert(pod.name, pod);
        simulation.run();
        next = (next + 1) % n;
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_EndpointsSync)->Arg(126)->Arg(1260);

// --------------------------------------------------------------------------
// The warm request path.

/// A ready Docker nginx instance on C3 and one client of it, with a
/// MetricsRegistry attached. The client's first request takes the packet-in
/// and installs its switch entry, whose idle timeout is `switch_idle`;
/// FlowMemory keeps the flow for the whole run.
struct NginxClient {
    explicit NginxClient(sim::SimTime switch_idle) {
        testbed::C3Options options;
        options.with_k8s = false;
        options.controller.dispatcher.switch_idle_timeout = switch_idle;
        options.controller.flow_memory.idle_timeout = sim::seconds(1'000'000);
        tb = testbed::build_c3(options);
        auto& platform = tb->platform;
        platform.simulation().set_metrics(&registry);
        const auto& spec = platform.register_service(nginx.address, nginx.yaml).spec;
        platform.deployment_engine().ensure(
            *platform.clusters().front(), spec, {},
            [&](bool ok, const orchestrator::InstanceInfo&) { ready = ok; });
        platform.simulation().run_while([&] { return !ready; });
        client = std::make_unique<workload::HttpClient>(platform.network(), collector);
        request();
    }

    /// One request, run to completion.
    void request() {
        client->request(tb->clients.front(), 0, nginx.address, nginx.request_size, tag);
        tb->platform.simulation().run();
    }

    /// Report `allocations` (counted since the first timed iteration) per
    /// request, and fail the benchmark if any request failed.
    void report(benchmark::State& state, std::uint64_t allocations) const {
        const auto requests = static_cast<double>(state.iterations());
        state.counters["allocs_per_request"] =
            static_cast<double>(testkit::allocations() - allocations) / requests;
        state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
        if (!ready || collector.failures() != 0) state.SkipWithError("request failed");
        benchmark::DoNotOptimize(collector.count());
    }

    sim::MetricsRegistry registry;  // outlives the testbed that points at it
    std::unique_ptr<testbed::C3Testbed> tb;
    const testbed::TestService& nginx = testbed::service_by_key("nginx");
    bool ready = false;
    workload::MetricsCollector collector;
    workload::RequestTag tag{"svc0"};
    std::unique_ptr<workload::HttpClient> client;
};

/// One HTTP request per iteration, through the full Simulation loop, from a
/// client whose switch entry is installed to a ready Docker nginx instance,
/// with a MetricsRegistry attached: HttpClient -> TcpNet -> OvsSwitch table
/// hit -> endpoint -> response. `allocs_per_request` counts calls of the
/// global operator new per request, the record vector's amortized growth
/// included.
void BM_WarmHttpRequest(benchmark::State& state) {
    NginxClient nginx(sim::seconds(1'000'000));
    const std::uint64_t allocations = testkit::allocations();
    for (auto _ : state) nginx.request();
    nginx.report(state, allocations);
}
BENCHMARK(BM_WarmHttpRequest);

/// The same request, 10 ms of simulated time after the previous one, while
/// the client's switch entry idles out after 5 ms: every iteration is a
/// table miss, a packet-in, a FlowMemory hit, a flow install and the
/// packet-out that releases the request.
void BM_PacketInRequest(benchmark::State& state) {
    NginxClient nginx(sim::milliseconds(5));
    auto& simulation = nginx.tb->platform.simulation();
    const std::uint64_t packet_ins = nginx.tb->platform.ingress().packet_in_count();
    const std::uint64_t allocations = testkit::allocations();
    for (auto _ : state) {
        simulation.run_until(simulation.now() + sim::milliseconds(10));
        nginx.request();
    }
    nginx.report(state, allocations);
    const auto iterations = static_cast<std::uint64_t>(state.iterations());
    if (nginx.tb->platform.ingress().packet_in_count() - packet_ins != iterations) {
        state.SkipWithError("a request did not take the packet-in");
    }
}
BENCHMARK(BM_PacketInRequest);

// --------------------------------------------------------------------------
// Everything else.

void BM_YamlParseDeployment(benchmark::State& state) {
    const std::string yaml = R"(
apiVersion: apps/v1
kind: Deployment
metadata:
  name: edge-svc
spec:
  replicas: 0
  selector:
    matchLabels:
      app: edge-svc
  template:
    metadata:
      labels:
        app: edge-svc
    spec:
      containers:
        - name: nginx
          image: nginx:1.23.2
          ports:
            - containerPort: 80
)";
    for (auto _ : state) {
        benchmark::DoNotOptimize(yamlite::parse(yaml));
    }
    state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                            static_cast<std::int64_t>(yaml.size()));
}
BENCHMARK(BM_YamlParseDeployment);

void BM_YamlEmitRoundTrip(benchmark::State& state) {
    const auto doc = yamlite::parse("a:\n  b:\n    - x\n    - y\nc: 1\n");
    for (auto _ : state) {
        benchmark::DoNotOptimize(yamlite::parse(yamlite::emit(doc)));
    }
}
BENCHMARK(BM_YamlEmitRoundTrip);

void BM_SampleSetQuantile(benchmark::State& state) {
    sim::Rng rng(3);
    sim::SampleSet set;
    for (int i = 0; i < 10000; ++i) set.add(rng.uniform(0, 1000));
    for (auto _ : state) {
        // Re-add one sample to force the re-sort each iteration.
        set.add(rng.uniform(0, 1000));
        benchmark::DoNotOptimize(set.quantile(0.95));
    }
}
BENCHMARK(BM_SampleSetQuantile);

void BM_RngLognormal(benchmark::State& state) {
    sim::Rng rng(4);
    for (auto _ : state) {
        benchmark::DoNotOptimize(rng.lognormal_median(1.0, 0.2));
    }
}
BENCHMARK(BM_RngLognormal);

} // namespace

BENCHMARK_MAIN();

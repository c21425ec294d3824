// Microbenchmarks for the framework's hot paths: event queue, flow-table
// lookup at realistic table sizes, scheduler decisions, YAML parsing, and
// statistics. These are real-time benchmarks of the simulator itself (not
// simulated time) -- they bound how fast experiments run.
#include <benchmark/benchmark.h>

#include <functional>
#include <string>

#include "net/flow_table.hpp"
#include "sdn/schedulers/proximity.hpp"
#include "simcore/event_queue.hpp"
#include "simcore/random.hpp"
#include "simcore/simulation.hpp"
#include "simcore/stats.hpp"
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
/// events, with and without pre-sizing the slab and heap array.
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

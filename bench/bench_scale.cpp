// Scale sweep for the control plane (ROADMAP "scale-out" milestone).
//
// Sweeps {10k, 100k, 1M} concurrent flows x {1, 8, 64} services through the
// packet-in hot path (FlowMemory recall-miss -> install) driven by the event
// kernel via a lazily-pulled PoissonStream, and reports per point:
//
//   * flows/s            -- flows made resident per wall-clock second of
//                           the fill (the gated quantity)
//   * kernel events/s    -- workload events the kernel carried per
//                           wall-clock second of the fill (equal to flows/s
//                           in exact mode, far lower in hybrid mode)
//   * install latency    -- wall-clock packet-in -> flow-install, sampled
//                           every 64th event (p50/p95/p99)
//   * lookup / idle ns   -- flows_for_service() and the per-(service,
//                           cluster) idle check once the table is full
//   * peak RSS           -- VmHWM, measured in a forked child per point so
//                           points don't inherit each other's high-water mark
//
// Results are written to BENCH_scale.json (one JSON object per point, flat
// and line-oriented, so the --baseline regression gate can parse it without
// a JSON library). `--baseline <file>` exits non-zero when the geometric
// mean of flows/s over the shared points drops more than 20% below the
// baseline (the CI gate), and when a baseline point lacks a key field or
// repeats another point's key.
//
// The sweep has a shard dimension (--shards, default "1,2,8"): shards=1 is
// the serial kernel, shards=N>1 runs the sharded control plane -- N edge
// domains each owning a FlowMemory partition and its own Poisson pump, plus
// a central controller domain receiving periodic digests over the
// conservative lookahead link -- under ShardedSimulation.
//
// The sweep has a fidelity dimension (--fidelity, default "both"): exact
// rows drive every flow through the per-packet path as before; hybrid rows
// (DESIGN §9) replay a FluidPoissonStream -- each service's first flow is an
// exact cold start, the rest arrive as per-epoch aggregate batches admitted
// via FlowMemory::admit_fluid -- so the kernel carries O(services) events
// per epoch instead of one per flow. Hybrid rows extend the sweep to 10M and
// 100M resident flows (serial kernel only; skipped under --quick). Flows/s
// is the common unit of both modes, so the hybrid/exact ratio is the
// control-plane speedup. When both fidelities sweep the 1M x 8 point, the
// run fails unless hybrid is >= 10x exact.
//
// Sharded rows run the production channel coordinator (DESIGN §8) and
// record its per-run lane accounting -- total lane busy/blocked wall time,
// the null-message count, and the channel plane's wakeup/park/suppression/
// demand counters -- so the shard-scaling table can attribute (lack of)
// speedup to synchronization stalls vs lock contention.
//
// Flags: --quick (skip the 1M row and the 10M/100M hybrid points: CI),
//        --shards <csv> (shard counts to sweep, default 1,2,8),
//        --fidelity exact|hybrid|both (default both),
//        --out <file>, --baseline <file>.
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <iostream>
#include <map>
#include <memory>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include <thread>

#include <sys/wait.h>
#include <unistd.h>

#include "common.hpp"
#include "net/address.hpp"
#include "sdn/control_plane_shard.hpp"
#include "sdn/flow_memory.hpp"
#include "simcore/sharded_simulation.hpp"
#include "simcore/simulation.hpp"
#include "workload/metrics.hpp"
#include "workload/stream.hpp"

namespace tedge::bench {
namespace {

using Clock = std::chrono::steady_clock;

double elapsed_s(Clock::time_point since) {
    return std::chrono::duration<double>(Clock::now() - since).count();
}

/// VmHWM (peak resident set) of the calling process, in kB; 0 if unreadable.
long peak_rss_kb() {
    std::ifstream status("/proc/self/status");
    std::string line;
    while (std::getline(status, line)) {
        if (line.rfind("VmHWM:", 0) == 0) {
            long kb = 0;
            std::sscanf(line.c_str(), "VmHWM: %ld", &kb);
            return kb;
        }
    }
    return 0;
}

double percentile(const std::vector<double>& sorted_samples, double p) {
    if (sorted_samples.empty()) return 0;
    const auto index = static_cast<std::size_t>(
        p * static_cast<double>(sorted_samples.size() - 1));
    return sorted_samples[index];
}

net::ServiceAddress address_for(std::uint32_t service) {
    return net::ServiceAddress{net::Ipv4{0x0a000000u + service}, 80,
                               net::Proto::kTcp};
}

constexpr std::uint32_t kClusters = 2;
constexpr sim::SimTime kIdleTimeout = sim::seconds(600);
constexpr sim::SimTime kScanPeriod = sim::seconds(5);
/// Batch grid of the hybrid rows' FluidPoissonStream.
constexpr sim::SimTime kEpochPeriod = sim::milliseconds(100);
/// Site-to-controller access latency: the partition's minimum cut-link
/// latency, i.e. the conservative lookahead of the sharded sweep points.
constexpr sim::SimTime kAccessLatency = sim::milliseconds(25);
/// How often each edge shard reports a digest to the controller domain.
constexpr sim::SimTime kDigestPeriod = sim::seconds(1);

// --------------------------------------------------------------- fork glue

/// Run `fn` in a forked child and ship its POD result back over a pipe --
/// each sweep point gets a pristine address space so VmHWM is per-point.
template <typename R>
std::optional<R> run_forked(const std::function<R()>& fn) {
    int fds[2];
    if (pipe(fds) != 0) return std::nullopt;
    const pid_t pid = fork();
    if (pid < 0) return std::nullopt;
    if (pid == 0) {
        close(fds[0]);
        try {
            R result = fn();
            const auto written = write(fds[1], &result, sizeof result);
            _exit(written == sizeof result ? 0 : 1);
        } catch (const std::exception& e) {
            // The parent reports "child died"; say why before going.
            std::cerr << "child: " << e.what() << "\n";
            _exit(1);
        }
    }
    close(fds[1]);
    R result{};
    const auto got = read(fds[0], &result, sizeof result);
    close(fds[0]);
    int status = 0;
    waitpid(pid, &status, 0);
    if (got != sizeof result) return std::nullopt; // child died (OOM, crash)
    return result;
}

// ------------------------------------------------------------- sweep point

/// How a sweep point fills the table: kExact drives every flow through the
/// per-packet path, kHybrid admits warm arrivals in bulk (admit_fluid).
enum class Fidelity { kExact, kHybrid };

const char* to_string(Fidelity fidelity) {
    return fidelity == Fidelity::kHybrid ? "hybrid" : "exact";
}

struct SweepPoint {
    std::size_t flows = 0;
    std::uint32_t services = 0;
    std::size_t shards = 1;  ///< 1 = serial kernel, > 1 = sharded control plane
    Fidelity fidelity = Fidelity::kExact;
};

/// POD result shipped from the forked child back over the pipe.
struct PointResult {
    double flows_per_s = 0;          ///< flows made resident per fill second
    double kernel_events_per_s = 0;  ///< kernel_events per fill second
    double install_p50_ns = 0;
    double install_p95_ns = 0;
    double install_p99_ns = 0;
    double lookup_ns = 0;      ///< flows_for_service(service), averaged
    double idle_check_ns = 0;  ///< flows_for_service(service, cluster), averaged
    double expire_per_s = 0;   ///< throughput of the expiry + idle sweep
    long rss_kb = 0;
    std::uint64_t idle_notifications = 0;
    std::uint64_t peak_live_flows = 0;
    std::uint64_t sync_rounds = 0;  ///< sync rounds / windows (sharded points)
    std::uint64_t null_messages = 0;   ///< pure horizon publications (channel)
    std::uint64_t lane_busy_ns = 0;    ///< wall time lanes spent in windows
    std::uint64_t lane_blocked_ns = 0; ///< wall time lanes waited on upstreams
    std::uint32_t lane_count = 0;      ///< coordinator lanes the run used
    std::uint64_t wakeups = 0;      ///< lane gate wakeups (lock-free channel)
    std::uint64_t parks = 0;        ///< gate waits that hit the condvar path
    std::uint64_t parked_ns = 0;    ///< wall time lanes spent parked
    std::uint64_t suppressed = 0;   ///< payload-free horizon advances withheld
    std::uint64_t demands = 0;      ///< demand pulls by EIT-blocked domains
    std::uint64_t digests = 0;      ///< digests the controller received
    std::uint32_t cores_used = 1;      ///< worker threads the point could use
    std::uint32_t hw_concurrency = 0;  ///< std::thread::hardware_concurrency()
    std::uint64_t kernel_events = 0;   ///< workload events the kernel carried
};

std::uint32_t hw_threads() {
    return std::max(1u, std::thread::hardware_concurrency());
}

/// Fill a FlowMemory with `point.flows` live flows through the event kernel:
/// every Poisson arrival is one packet-in (recall miss -> install), pumped
/// one pending event at a time exactly like the streaming TraceRunner.
PointResult run_point_once(const SweepPoint& point) {
    PointResult result;

    sim::Simulation sim;
    // The pump keeps at most one arrival pending and the expiry path adds one
    // daemon event per occupied deadline bucket, so a modest slab reserve is
    // enough to skip the early growth stalls without inflating the peak-RSS
    // headline the 1M point reports.
    sim.reserve_events(4096);
    sdn::FlowMemory memory(sim, {kIdleTimeout, kScanPeriod});
    memory.reserve(point.flows);
    std::uint64_t idle_events = 0;
    memory.set_idle_service_callback(
        [&](const std::string&, const std::string&) { ++idle_events; });

    std::vector<std::string> service_names(point.services);
    std::vector<net::ServiceAddress> addresses(point.services);
    for (std::uint32_t s = 0; s < point.services; ++s) {
        service_names[s] = "svc" + std::to_string(s);
        addresses[s] = address_for(s);
    }
    std::vector<std::string> cluster_names(kClusters);
    for (std::uint32_t c = 0; c < kClusters; ++c) {
        cluster_names[c] = "edge" + std::to_string(c);
    }

    // Arrival rate chosen so the fill spans ~60 simulated seconds; the idle
    // timeout is larger, so every installed flow is still live at the end --
    // the point measures `flows` *concurrent* flows, not churn.
    workload::PoissonStream::Options stream_options;
    stream_options.services = point.services;
    stream_options.clients = 1024;
    stream_options.limit = point.flows;
    stream_options.total_rate_per_s = static_cast<double>(point.flows) / 60.0;
    stream_options.seed = 42;
    workload::PoissonStream stream(stream_options);

    std::vector<double> install_ns;
    install_ns.reserve(point.flows / 64 + 1);
    std::size_t installed = 0;
    std::optional<workload::TraceEvent> pending = stream.next();
    std::function<void()> fire = [&] {
        const workload::TraceEvent event = *pending;
        pending = stream.next();
        if (pending) {
            // Re-arm via a thin reference-capturing shim: copying `fire`
            // itself into the kernel would heap-allocate per event (its
            // closure outgrows the std::function small-object buffer).
            sim.schedule_at(pending->at, [&fire] { fire(); });
            // Software-pipeline the flow-table access: start the probe-line
            // load for the *next* packet now, so its DRAM latency overlaps
            // this packet's work instead of stalling the next recall().
            memory.prefetch(
                net::Ipv4{0xc0000000u + static_cast<std::uint32_t>(installed) + 1},
                addresses[pending->service]);
        }

        // One packet-in: distinct client ip per flow, cluster by client.
        const net::Ipv4 client_ip{0xc0000000u + static_cast<std::uint32_t>(installed)};
        const std::uint32_t cluster = event.client % kClusters;
        // Only sampled events pay for the clock reads: an unconditional
        // Clock::now() per event is ~40 ns of pure instrumentation overhead
        // on this VM, a sizeable bias in the flows/s headline.
        const bool sampled = (installed % 64) == 0;
        const auto start = sampled ? Clock::now() : Clock::time_point{};
        const auto hit = memory.recall(client_ip, addresses[event.service]);
        if (!hit) {
            sdn::MemorizedFlow flow;
            flow.client_ip = client_ip;
            flow.service_address = addresses[event.service];
            flow.service_name = service_names[event.service];
            flow.instance_node = net::NodeId{event.service};
            flow.instance_port = 8000;
            flow.cluster = cluster_names[cluster];
            flow.created = sim.now();
            flow.last_used = sim.now();
            memory.memorize(flow);
        }
        if (sampled) {
            install_ns.push_back(
                std::chrono::duration<double, std::nano>(Clock::now() - start)
                    .count());
        }
        ++installed;
    };
    if (pending) sim.schedule_at(pending->at, fire);

    const auto fill_start = Clock::now();
    sim.run_while([&] { return installed < point.flows; });
    const double fill_s = elapsed_s(fill_start);
    result.flows_per_s = static_cast<double>(point.flows) / fill_s;
    result.kernel_events = point.flows;
    result.kernel_events_per_s = static_cast<double>(result.kernel_events) / fill_s;
    result.peak_live_flows = memory.size();

    std::sort(install_ns.begin(), install_ns.end());
    result.install_p50_ns = percentile(install_ns, 0.50);
    result.install_p95_ns = percentile(install_ns, 0.95);
    result.install_p99_ns = percentile(install_ns, 0.99);

    // flows_for_service / idle-check at full occupancy. The counter answers
    // are O(1) regardless of `flows`; keep the pass count modest so the 10k
    // and 1M points time the same amount of work.
    constexpr std::size_t kPasses = 4096;
    volatile std::size_t sink = 0;
    auto start = Clock::now();
    for (std::size_t pass = 0; pass < kPasses; ++pass) {
        for (std::uint32_t s = 0; s < point.services; ++s) {
            sink = sink + memory.flows_for_service(service_names[s]);
        }
    }
    result.lookup_ns = std::chrono::duration<double, std::nano>(
                           Clock::now() - start)
                           .count() /
                       static_cast<double>(kPasses * point.services);
    start = Clock::now();
    for (std::size_t pass = 0; pass < kPasses; ++pass) {
        for (std::uint32_t s = 0; s < point.services; ++s) {
            for (std::uint32_t c = 0; c < kClusters; ++c) {
                sink = sink + memory.flows_for_service(service_names[s],
                                                       cluster_names[c]);
            }
        }
    }
    result.idle_check_ns =
        std::chrono::duration<double, std::nano>(Clock::now() - start).count() /
        static_cast<double>(kPasses * point.services * kClusters);

    // Expiry: advance past the idle timeout and let the periodic scan drain
    // the whole table, firing the per-(service, cluster) idle notifications.
    const auto expire_start = Clock::now();
    sim.run_until(sim.now() + kIdleTimeout + kScanPeriod * 3);
    result.expire_per_s =
        static_cast<double>(point.flows) / elapsed_s(expire_start);
    result.idle_notifications = idle_events;
    result.rss_kb = peak_rss_kb();
    result.cores_used = 1;
    result.hw_concurrency = hw_threads();
    return result;
}

/// Hybrid-fidelity fill (DESIGN §9): each service's first flow is an exact
/// cold start through the per-packet path (recall miss -> memorize), every
/// later arrival reaches the FlowMemory as a per-epoch aggregate batch
/// (admit_fluid), driven by a FluidPoissonStream. The table ends up with the
/// same `point.flows` resident flows and fires the same per-(service,
/// cluster) idle notifications as the exact fill, but the kernel carries
/// O(services x epochs) events instead of one per flow.
PointResult run_point_hybrid_once(const SweepPoint& point) {
    PointResult result;

    sim::Simulation sim;
    sim.reserve_events(4096);
    sdn::FlowMemory memory(sim, {kIdleTimeout, kScanPeriod});
    memory.reserve(point.services);  // exact pool: one cold flow per service
    std::uint64_t idle_events = 0;
    memory.set_idle_service_callback(
        [&](const std::string&, const std::string&) { ++idle_events; });

    std::vector<std::string> service_names(point.services);
    std::vector<net::ServiceAddress> addresses(point.services);
    for (std::uint32_t s = 0; s < point.services; ++s) {
        service_names[s] = "svc" + std::to_string(s);
        addresses[s] = address_for(s);
    }
    std::vector<std::string> cluster_names(kClusters);
    for (std::uint32_t c = 0; c < kClusters; ++c) {
        cluster_names[c] = "edge" + std::to_string(c);
    }

    workload::FluidPoissonStream::Options stream_options;
    stream_options.services = point.services;
    stream_options.clients = 1024;
    stream_options.limit = point.flows;
    stream_options.total_rate_per_s = static_cast<double>(point.flows) / 60.0;
    stream_options.seed = 42;
    stream_options.epoch_period = kEpochPeriod;
    workload::FluidPoissonStream stream(stream_options);

    // Batches are rare (O(services) per epoch), so every event is sampled --
    // the install percentiles price the per-batch control-plane work.
    std::vector<double> install_ns;
    std::vector<bool> warm(point.services, false);
    std::size_t installed = 0;        // flows resident so far
    std::uint64_t kernel_events = 0;  // workload events through the kernel
    std::optional<workload::TraceEvent> pending = stream.next();
    std::function<void()> fire = [&] {
        const workload::TraceEvent event = *pending;
        pending = stream.next();
        if (pending) sim.schedule_at(pending->at, [&fire] { fire(); });

        const std::uint32_t cluster = event.client % kClusters;
        const auto start = Clock::now();
        if (!warm[event.service]) {
            // Exact cold start: the decision the control plane must resolve
            // per-packet in either fidelity.
            warm[event.service] = true;
            const net::Ipv4 client_ip{0xc0000000u +
                                      static_cast<std::uint32_t>(installed)};
            const auto hit = memory.recall(client_ip, addresses[event.service]);
            if (!hit) {
                sdn::MemorizedFlow flow;
                flow.client_ip = client_ip;
                flow.service_address = addresses[event.service];
                flow.service_name = service_names[event.service];
                flow.instance_node = net::NodeId{event.service};
                flow.instance_port = 8000;
                flow.cluster = cluster_names[cluster];
                flow.created = sim.now();
                flow.last_used = sim.now();
                memory.memorize(flow);
            }
        } else {
            memory.admit_fluid(service_names[event.service],
                               cluster_names[cluster], event.count);
        }
        install_ns.push_back(
            std::chrono::duration<double, std::nano>(Clock::now() - start)
                .count());
        installed += event.count;
        ++kernel_events;
    };
    if (pending) sim.schedule_at(pending->at, fire);

    const auto fill_start = Clock::now();
    sim.run_while([&] { return installed < point.flows; });
    const double fill_s = elapsed_s(fill_start);
    result.flows_per_s = static_cast<double>(point.flows) / fill_s;
    result.kernel_events_per_s = static_cast<double>(kernel_events) / fill_s;
    result.peak_live_flows = memory.size();
    result.kernel_events = kernel_events;

    std::sort(install_ns.begin(), install_ns.end());
    result.install_p50_ns = percentile(install_ns, 0.50);
    result.install_p95_ns = percentile(install_ns, 0.95);
    result.install_p99_ns = percentile(install_ns, 0.99);

    constexpr std::size_t kPasses = 4096;
    volatile std::size_t sink = 0;
    auto start = Clock::now();
    for (std::size_t pass = 0; pass < kPasses; ++pass) {
        for (std::uint32_t s = 0; s < point.services; ++s) {
            sink = sink + memory.flows_for_service(service_names[s]);
        }
    }
    result.lookup_ns = std::chrono::duration<double, std::nano>(
                           Clock::now() - start)
                           .count() /
                       static_cast<double>(kPasses * point.services);
    start = Clock::now();
    for (std::size_t pass = 0; pass < kPasses; ++pass) {
        for (std::uint32_t s = 0; s < point.services; ++s) {
            for (std::uint32_t c = 0; c < kClusters; ++c) {
                sink = sink + memory.flows_for_service(service_names[s],
                                                       cluster_names[c]);
            }
        }
    }
    result.idle_check_ns =
        std::chrono::duration<double, std::nano>(Clock::now() - start).count() /
        static_cast<double>(kPasses * point.services * kClusters);

    const auto expire_start = Clock::now();
    sim.run_until(sim.now() + kIdleTimeout + kScanPeriod * 3);
    result.expire_per_s =
        static_cast<double>(point.flows) / elapsed_s(expire_start);
    result.idle_notifications = idle_events;
    result.rss_kb = peak_rss_kb();
    result.cores_used = 1;
    result.hw_concurrency = hw_threads();
    return result;
}

/// The sharded control plane at `point.shards` edge sites: one sim::Domain
/// per site, each owning a ControlPlaneShard (its slice of the flow table)
/// and its own Poisson pump over a disjoint client-ip range, plus a central
/// controller domain whose aggregator receives periodic digests across the
/// kAccessLatency cut links. The whole ensemble runs under ShardedSimulation
/// with the conservative lookahead = kAccessLatency; results are
/// deterministic at any worker count.
PointResult run_point_sharded_once(const SweepPoint& point) {
    PointResult result;
    const std::size_t num_shards = point.shards;

    sim::ShardedSimulation::Options kernel;
    kernel.seed = 42;
    kernel.lookahead = kAccessLatency;
    sim::ShardedSimulation sharded(kernel);

    std::vector<sim::Domain*> edges;
    for (std::size_t s = 0; s < num_shards; ++s) {
        edges.push_back(&sharded.add_domain("edge" + std::to_string(s)));
    }
    sim::Domain& controller = sharded.add_domain("controller");
    sdn::ControlPlaneAggregator aggregator(controller);

    std::vector<std::string> service_names(point.services);
    std::vector<net::ServiceAddress> addresses(point.services);
    for (std::uint32_t s = 0; s < point.services; ++s) {
        service_names[s] = "svc" + std::to_string(s);
        addresses[s] = address_for(s);
    }
    std::vector<std::string> cluster_names(kClusters);
    for (std::uint32_t c = 0; c < kClusters; ++c) {
        cluster_names[c] = "edge" + std::to_string(c);
    }

    // Same aggregate load as the serial point, split across shard streams:
    // rate and event budget divide evenly, each shard's arrival sequence is
    // keyed by its stable domain id.
    workload::PoissonStream::Options base_stream;
    base_stream.services = point.services;
    base_stream.clients = 1024;
    base_stream.limit = point.flows;
    base_stream.total_rate_per_s = static_cast<double>(point.flows) / 60.0;
    base_stream.seed = 42;

    // Each shard's pump runs on the lane that owns its domain, so every
    // piece of state a pump writes -- the install counter and the latency
    // samples -- lives in its own Shard and is merged only after run().
    struct Shard {
        std::unique_ptr<sdn::ControlPlaneShard> plane;
        std::unique_ptr<workload::PoissonStream> stream;
        std::unique_ptr<workload::StreamPump> pump;
        std::size_t installed = 0;
        std::vector<double> install_ns;
    };
    std::vector<Shard> shards(num_shards);

    for (std::size_t s = 0; s < num_shards; ++s) {
        auto& shard = shards[s];
        sdn::ControlPlaneShard::Config config;
        config.flow_memory = {kIdleTimeout, kScanPeriod};
        config.digest_period = kDigestPeriod;
        shard.plane = std::make_unique<sdn::ControlPlaneShard>(
            *edges[s], aggregator, config);
        const auto stream_options = workload::PoissonStream::shard_options(
            base_stream, static_cast<std::uint32_t>(s),
            static_cast<std::uint32_t>(num_shards));
        shard.plane->memory().reserve(stream_options.limit);
        shard.install_ns.reserve(stream_options.limit / 64 + 1);
        shard.stream = std::make_unique<workload::PoissonStream>(stream_options);

        // Disjoint per-shard client-ip blocks keep flows unique within their
        // shard's slice of the table (a shard never sees another's clients,
        // exactly like clients homed at different sites).
        const std::uint32_t ip_base =
            0xc0000000u + static_cast<std::uint32_t>(s) * 0x01000000u;
        shard.pump = std::make_unique<workload::StreamPump>(
            edges[s]->sim(), *shard.stream,
            [&shard, ip_base, &addresses, &service_names,
             &cluster_names](const workload::TraceEvent& event,
                             const std::optional<workload::TraceEvent>& next) {
                if (next) {
                    shard.plane->memory().prefetch(
                        net::Ipv4{ip_base +
                                  static_cast<std::uint32_t>(shard.installed) + 1},
                        addresses[next->service]);
                }
                const net::Ipv4 client_ip{
                    ip_base + static_cast<std::uint32_t>(shard.installed)};
                const bool sampled = (shard.installed % 64) == 0;
                const auto start = sampled ? Clock::now() : Clock::time_point{};
                shard.plane->packet_in(client_ip, addresses[event.service],
                                       service_names[event.service],
                                       net::NodeId{event.service}, 8000,
                                       cluster_names[event.client % kClusters]);
                if (sampled) {
                    shard.install_ns.push_back(
                        std::chrono::duration<double, std::nano>(Clock::now() -
                                                                 start)
                            .count());
                }
                ++shard.installed;
            });
        shard.plane->start();
        shard.pump->start();
    }

    const auto fill_start = Clock::now();
    sharded.run();  // drains every pump; digest daemons ride along
    const double fill_s = elapsed_s(fill_start);
    result.flows_per_s = static_cast<double>(point.flows) / fill_s;
    result.kernel_events = point.flows;
    result.kernel_events_per_s = static_cast<double>(result.kernel_events) / fill_s;
    std::vector<double> install_ns;
    install_ns.reserve(point.flows / 64 + num_shards);
    for (const auto& shard : shards) {
        result.peak_live_flows += shard.plane->memory().size();
        install_ns.insert(install_ns.end(), shard.install_ns.begin(),
                          shard.install_ns.end());
    }

    std::sort(install_ns.begin(), install_ns.end());
    result.install_p50_ns = percentile(install_ns, 0.50);
    result.install_p95_ns = percentile(install_ns, 0.95);
    result.install_p99_ns = percentile(install_ns, 0.99);

    // Control-plane queries now fan out over the shards (the aggregate the
    // central controller would compute from per-shard answers).
    constexpr std::size_t kPasses = 4096;
    volatile std::size_t sink = 0;
    auto start = Clock::now();
    for (std::size_t pass = 0; pass < kPasses; ++pass) {
        for (std::uint32_t s = 0; s < point.services; ++s) {
            std::size_t total = 0;
            for (const auto& shard : shards) {
                total += shard.plane->memory().flows_for_service(service_names[s]);
            }
            sink = sink + total;
        }
    }
    result.lookup_ns = std::chrono::duration<double, std::nano>(
                           Clock::now() - start)
                           .count() /
                       static_cast<double>(kPasses * point.services);
    start = Clock::now();
    for (std::size_t pass = 0; pass < kPasses; ++pass) {
        for (std::uint32_t s = 0; s < point.services; ++s) {
            for (std::uint32_t c = 0; c < kClusters; ++c) {
                std::size_t total = 0;
                for (const auto& shard : shards) {
                    total += shard.plane->memory().flows_for_service(
                        service_names[s], cluster_names[c]);
                }
                sink = sink + total;
            }
        }
    }
    result.idle_check_ns =
        std::chrono::duration<double, std::nano>(Clock::now() - start).count() /
        static_cast<double>(kPasses * point.services * kClusters);

    // Expiry sweeps run per shard, in parallel like the fill.
    const auto expire_start = Clock::now();
    sharded.run_until(sharded.now() + kIdleTimeout + kScanPeriod * 3);
    result.expire_per_s =
        static_cast<double>(point.flows) / elapsed_s(expire_start);
    for (const auto& shard : shards) {
        result.idle_notifications += shard.plane->idle_notifications();
    }
    result.sync_rounds = sharded.rounds();
    result.null_messages = sharded.null_messages();
    result.wakeups = sharded.lane_wakeups();
    result.suppressed = sharded.suppressed_publications();
    result.demands = sharded.demand_requests();
    for (const auto& lane : sharded.lane_stats()) {
        result.lane_busy_ns += lane.busy_ns;
        result.lane_blocked_ns += lane.blocked_ns;
        result.parks += lane.parks;
        result.parked_ns += lane.parked_ns;
    }
    result.lane_count = static_cast<std::uint32_t>(sharded.lane_stats().size());
    result.digests = aggregator.digests_received();
    result.rss_kb = peak_rss_kb();
    // One worker lane per domain (edges + controller), capped by the host.
    result.cores_used = static_cast<std::uint32_t>(
        std::min<std::size_t>(num_shards + 1, hw_threads()));
    result.hw_concurrency = hw_threads();
    return result;
}

/// Small points finish in milliseconds, which makes a single fill far too
/// jittery to gate on (>20% run-to-run). Repeat them and keep the fastest
/// run; the 1M points are longer but still see host-load spikes, so they get
/// a smaller repeat count. VmHWM is process-wide and every repeat allocates
/// the same amount, so the RSS number is unaffected by repetition.
PointResult run_point(const SweepPoint& point) {
    const auto once = [&point] {
        if (point.fidelity == Fidelity::kHybrid) {
            return run_point_hybrid_once(point);
        }
        return point.shards > 1 ? run_point_sharded_once(point)
                                : run_point_once(point);
    };
    const int repeats = point.flows <= 100'000 ? 5 : 3;
    PointResult best = once();
    for (int i = 1; i < repeats; ++i) {
        const PointResult run = once();
        if (run.flows_per_s > best.flows_per_s) best = run;
    }
    return best;
}

// ----------------------------------------------------------------- output

std::string json_point(const SweepPoint& point, const PointResult& result) {
    std::ostringstream out;
    out << "    {\"flows\": " << point.flows
        << ", \"services\": " << point.services
        << ", \"shards\": " << point.shards
        << ", \"fidelity\": \"" << to_string(point.fidelity)
        << "\", \"cores_used\": " << result.cores_used
        << ", \"hw_concurrency\": " << result.hw_concurrency
        << ", \"kernel_events\": " << result.kernel_events
        << ", \"sync_rounds\": " << result.sync_rounds
        << ", \"null_messages\": " << result.null_messages
        << ", \"wakeups\": " << result.wakeups
        << ", \"parks\": " << result.parks
        << ", \"parked_ns\": " << result.parked_ns
        << ", \"suppressed\": " << result.suppressed
        << ", \"demands\": " << result.demands
        << ", \"lanes\": " << result.lane_count
        << ", \"lane_busy_ns\": " << result.lane_busy_ns
        << ", \"lane_blocked_ns\": " << result.lane_blocked_ns
        << ", \"digests\": " << result.digests
        << ", \"flows_per_s\": "
        << static_cast<std::uint64_t>(result.flows_per_s)
        << ", \"kernel_events_per_s\": "
        << static_cast<std::uint64_t>(result.kernel_events_per_s)
        << ", \"install_p50_ns\": "
        << static_cast<std::uint64_t>(result.install_p50_ns)
        << ", \"install_p95_ns\": "
        << static_cast<std::uint64_t>(result.install_p95_ns)
        << ", \"install_p99_ns\": "
        << static_cast<std::uint64_t>(result.install_p99_ns)
        << ", \"lookup_ns\": " << static_cast<std::uint64_t>(result.lookup_ns)
        << ", \"idle_check_ns\": "
        << static_cast<std::uint64_t>(result.idle_check_ns)
        << ", \"expire_per_s\": "
        << static_cast<std::uint64_t>(result.expire_per_s)
        << ", \"peak_rss_kb\": " << result.rss_kb
        << ", \"idle_notifications\": " << result.idle_notifications
        << ", \"peak_live_flows\": " << result.peak_live_flows << "}";
    return out.str();
}

/// Extract the number following `"key": ` on `line`; nullopt if absent.
std::optional<double> extract_number(const std::string& line,
                                     const std::string& key) {
    const std::string needle = "\"" + key + "\": ";
    const auto at = line.find(needle);
    if (at == std::string::npos) return std::nullopt;
    return std::strtod(line.c_str() + at + needle.size(), nullptr);
}

/// Extract the quoted string following `"key": "` on `line`; nullopt if
/// absent.
std::optional<std::string> extract_string(const std::string& line,
                                          const std::string& key) {
    const std::string needle = "\"" + key + "\": \"";
    const auto at = line.find(needle);
    if (at == std::string::npos) return std::nullopt;
    const auto start = at + needle.size();
    const auto end = line.find('"', start);
    if (end == std::string::npos) return std::nullopt;
    return line.substr(start, end - start);
}

using BaselineKey =
    std::tuple<std::size_t, std::uint32_t, std::size_t, std::string>;

/// flows/s per (flows, services, shards, fidelity) point parsed from a
/// BENCH_scale.json. Every line carrying a "flows" field is a point and must
/// carry all four key fields plus flows_per_s, and no two points may share a
/// key; a violation throws std::runtime_error naming the file and line (a
/// baseline written by an older bench_scale must be regenerated).
std::map<BaselineKey, double> parse_baseline(const std::string& path) {
    std::map<BaselineKey, double> baseline;
    std::ifstream in(path);
    std::string line;
    std::size_t line_no = 0;
    while (std::getline(in, line)) {
        ++line_no;
        const auto flows = extract_number(line, "flows");
        if (!flows) continue;
        const auto error = [&](const std::string& what) {
            return std::runtime_error(path + ":" + std::to_string(line_no) +
                                      ": " + what);
        };
        const auto missing = [&](const char* key) {
            return error("point has no \"" + std::string(key) + "\" field");
        };
        const auto number = [&](const char* key) {
            const auto value = extract_number(line, key);
            if (!value) throw missing(key);
            return *value;
        };
        const auto string = [&](const char* key) {
            auto value = extract_string(line, key);
            if (!value) throw missing(key);
            return std::move(*value);
        };
        const BaselineKey key{static_cast<std::size_t>(*flows),
                              static_cast<std::uint32_t>(number("services")),
                              static_cast<std::size_t>(number("shards")),
                              string("fidelity")};
        if (!baseline.emplace(key, number("flows_per_s")).second) {
            throw error("repeats the key (flows, services, shards, fidelity) "
                        "of an earlier point");
        }
    }
    return baseline;
}

/// "1,2,8" -> {1, 2, 8}; nullopt on anything non-numeric or non-positive.
std::optional<std::vector<std::size_t>> parse_shards_csv(const std::string& csv) {
    std::vector<std::size_t> shards;
    std::stringstream in(csv);
    std::string token;
    while (std::getline(in, token, ',')) {
        char* end = nullptr;
        const long value = std::strtol(token.c_str(), &end, 10);
        if (end == token.c_str() || *end != '\0' || value <= 0) {
            return std::nullopt;
        }
        shards.push_back(static_cast<std::size_t>(value));
    }
    if (shards.empty()) return std::nullopt;
    return shards;
}

} // namespace
} // namespace tedge::bench

int main(int argc, char** argv) {
    using namespace tedge;
    using namespace tedge::bench;

    bool quick = false;
    std::string out_path = "BENCH_scale.json";
    std::string baseline_path;
    std::string shards_arg = "1,2,8";
    std::string fidelity_arg = "both";
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--quick") {
            quick = true;
        } else if (arg == "--out" && i + 1 < argc) {
            out_path = argv[++i];
        } else if (arg == "--baseline" && i + 1 < argc) {
            baseline_path = argv[++i];
        } else if (arg == "--shards" && i + 1 < argc) {
            shards_arg = argv[++i];
        } else if (arg == "--fidelity" && i + 1 < argc) {
            fidelity_arg = argv[++i];
        } else {
            std::cerr << "usage: bench_scale [--quick] [--shards <csv>] "
                         "[--fidelity exact|hybrid|both] "
                         "[--out <file>] [--baseline <file>]\n";
            return 2;
        }
    }
    const auto shard_counts = parse_shards_csv(shards_arg);
    if (!shard_counts) {
        std::cerr << "bad --shards '" << shards_arg
                  << "' (expected comma-separated positive integers)\n";
        return 2;
    }
    std::vector<Fidelity> fidelities;
    if (fidelity_arg == "exact") {
        fidelities = {Fidelity::kExact};
    } else if (fidelity_arg == "hybrid") {
        fidelities = {Fidelity::kHybrid};
    } else if (fidelity_arg == "both") {
        fidelities = {Fidelity::kExact, Fidelity::kHybrid};
    } else {
        std::cerr << "unknown --fidelity '" << fidelity_arg
                  << "' (expected exact, hybrid, or both)\n";
        return 2;
    }

    print_header("scale",
                 "control-plane scale sweep: concurrent flows x services -> "
                 "flows/s, install latency, peak RSS");

    const std::vector<std::size_t> base_flow_counts =
        quick ? std::vector<std::size_t>{10'000, 100'000}
              : std::vector<std::size_t>{10'000, 100'000, 1'000'000};
    const std::vector<std::uint32_t> service_counts = {1, 8, 64};

    std::vector<std::pair<SweepPoint, PointResult>> results;
    workload::TextTable table({"fidelity", "shards", "flows", "services",
                               "flows/s", "kernel ev/s", "install p50",
                               "install p99", "lookup ns", "idle ns",
                               "peak RSS MB"});
    for (const auto fidelity : fidelities) {
        for (const auto shards : *shard_counts) {
            // The hybrid fast path is a serial-kernel feature.
            if (shards > 1 && fidelity == Fidelity::kHybrid) continue;
            std::vector<std::size_t> flow_counts = base_flow_counts;
            if (fidelity == Fidelity::kHybrid && shards == 1 && !quick) {
                // The fluid rows the exact path cannot reach.
                flow_counts.push_back(10'000'000);
                flow_counts.push_back(100'000'000);
            }
            for (const auto flows : flow_counts) {
                for (const auto services : service_counts) {
                    const SweepPoint point{flows, services, shards, fidelity};
                    const auto result = run_forked<PointResult>(
                        [point] { return run_point(point); });
                    if (!result) {
                        std::cerr << "point " << flows << "x" << services
                                  << " (shards " << shards << ", "
                                  << to_string(fidelity)
                                  << ") failed (child died)\n";
                        return 1;
                    }
                    if (result->peak_live_flows != flows ||
                        result->idle_notifications == 0) {
                        std::cerr << "point " << flows << "x" << services
                                  << " (shards " << shards << ", "
                                  << to_string(fidelity)
                                  << ") invalid: live="
                                  << result->peak_live_flows
                                  << " idle_notifications="
                                  << result->idle_notifications << "\n";
                        return 1;
                    }
                    results.emplace_back(point, *result);
                    table.add_row(
                        {to_string(fidelity), std::to_string(shards),
                         std::to_string(flows), std::to_string(services),
                         workload::TextTable::num(result->flows_per_s, 0),
                         workload::TextTable::num(result->kernel_events_per_s,
                                                  0),
                         workload::TextTable::num(result->install_p50_ns, 0) +
                             " ns",
                         workload::TextTable::num(result->install_p99_ns, 0) +
                             " ns",
                         workload::TextTable::num(result->lookup_ns, 0),
                         workload::TextTable::num(result->idle_check_ns, 0),
                         workload::TextTable::num(
                             static_cast<double>(result->rss_kb) / 1024.0, 1)});
                }
            }
        }
    }
    std::cout << table.str() << "\n";

    // Hybrid vs exact at shared points: flows per wall-clock second in both
    // modes, so the ratio is the control-plane speedup the fluid fast path
    // buys. The 1M x 8 point carries a hard >= 10x acceptance gate.
    if (fidelities.size() == 2) {
        workload::TextTable speedup({"flows", "services", "exact flows/s",
                                     "hybrid flows/s", "speedup",
                                     "kernel events"});
        bool gate_failed = false;
        for (const auto& [point, result] : results) {
            if (point.fidelity != Fidelity::kHybrid || point.shards != 1) {
                continue;
            }
            double exact_flows = 0;
            for (const auto& [p, r] : results) {
                if (p.fidelity == Fidelity::kExact && p.shards == 1 &&
                    p.flows == point.flows && p.services == point.services) {
                    exact_flows = r.flows_per_s;
                }
            }
            if (exact_flows <= 0) continue;
            const double ratio = result.flows_per_s / exact_flows;
            speedup.add_row(
                {std::to_string(point.flows), std::to_string(point.services),
                 workload::TextTable::num(exact_flows, 0),
                 workload::TextTable::num(result.flows_per_s, 0),
                 workload::TextTable::num(ratio, 1) + "x",
                 std::to_string(result.kernel_events)});
            if (point.flows == 1'000'000 && point.services == 8 &&
                ratio < 10.0) {
                gate_failed = true;
            }
        }
        std::cout << "hybrid vs exact, fill flows/s:\n" << speedup.str() << "\n";
        if (gate_failed) {
            std::cerr << "HYBRID GATE: < 10x exact at the 1M x 8 point\n";
            return 1;
        }
    }

    // Shard-scaling view: flows/s vs the serial kernel at the same point.
    // Column positions are read by the CI shard-efficiency gate.
    if (shard_counts->size() > 1) {
        workload::TextTable scaling({"flows", "services", "shards", "cores",
                                     "flows/s", "vs serial", "per-core eff",
                                     "sync rounds", "nulls", "wakeups",
                                     "parks/lane", "parked ms/lane", "busy ms",
                                     "blocked ms", "digests"});
        for (const auto flows : base_flow_counts) {
            for (const auto services : service_counts) {
                double serial_flows = 0;
                for (const auto& [point, result] : results) {
                    if (point.fidelity == Fidelity::kExact &&
                        point.shards == 1 && point.flows == flows &&
                        point.services == services) {
                        serial_flows = result.flows_per_s;
                    }
                }
                if (serial_flows <= 0) continue;
                for (const auto& [point, result] : results) {
                    if (point.fidelity != Fidelity::kExact ||
                        point.flows != flows || point.services != services) {
                        continue;
                    }
                    // Speedup normalized by the cores the point could use: a
                    // perfectly scaling shard sweep holds this near 1.0, and
                    // on a single-core host the sharded rows honestly report
                    // their serialization instead of faking scale-out.
                    const double speedup = result.flows_per_s / serial_flows;
                    const double per_core =
                        speedup / static_cast<double>(result.cores_used);
                    // Lock contention per lane: how often a gate wait fell
                    // through the spin to the condvar, and how long it sat
                    // there. A contended plane parks often and long; a
                    // well-suppressed one wakes rarely in the first place.
                    const double lanes = std::max(1u, result.lane_count);
                    scaling.add_row(
                        {std::to_string(flows), std::to_string(services),
                         std::to_string(point.shards),
                         std::to_string(result.cores_used),
                         workload::TextTable::num(result.flows_per_s, 0),
                         workload::TextTable::num(speedup, 2) + "x",
                         workload::TextTable::num(per_core, 2),
                         std::to_string(result.sync_rounds),
                         std::to_string(result.null_messages),
                         std::to_string(result.wakeups),
                         workload::TextTable::num(
                             static_cast<double>(result.parks) / lanes, 1),
                         workload::TextTable::num(
                             static_cast<double>(result.parked_ns) / lanes / 1e6,
                             1),
                         workload::TextTable::num(
                             static_cast<double>(result.lane_busy_ns) / 1e6, 1),
                         workload::TextTable::num(
                             static_cast<double>(result.lane_blocked_ns) / 1e6,
                             1),
                         std::to_string(result.digests)});
                }
            }
        }
        std::cout << "shard scaling, fill flows/s (exact):\n"
                  << scaling.str() << "\n";
    }

    std::ofstream out(out_path);
    out << "{\n  \"bench\": \"bench_scale\",\n  \"quick\": "
        << (quick ? "true" : "false") << ",\n  \"points\": [\n";
    for (std::size_t i = 0; i < results.size(); ++i) {
        out << json_point(results[i].first, results[i].second)
            << (i + 1 < results.size() ? "," : "") << "\n";
    }
    out << "  ]\n}\n";
    out.close();
    std::cout << "wrote " << out_path << "\n";

    if (!baseline_path.empty()) {
        std::map<BaselineKey, double> baseline;
        try {
            baseline = parse_baseline(baseline_path);
        } catch (const std::runtime_error& e) {
            std::cerr << "baseline " << e.what() << "\n";
            return 1;
        }
        if (baseline.empty()) {
            std::cerr << "baseline " << baseline_path
                      << " missing or unparseable\n";
            return 1;
        }
        // Gate on the geometric mean of per-point ratios: a single point can
        // still jitter by more than any per-point tolerance would allow, but
        // a >20% drop across the whole sweep is a real regression.
        double log_ratio_sum = 0;
        std::size_t compared = 0;
        for (const auto& [point, result] : results) {
            const auto it = baseline.find({point.flows, point.services,
                                           point.shards,
                                           to_string(point.fidelity)});
            if (it == baseline.end() || it->second <= 0) continue;
            const double ratio = result.flows_per_s / it->second;
            std::cout << "  " << point.flows << "x" << point.services
                      << " (shards " << point.shards << ", "
                      << to_string(point.fidelity)
                      << "): " << workload::TextTable::num(ratio, 2)
                      << "x baseline\n";
            log_ratio_sum += std::log(ratio);
            ++compared;
        }
        if (compared == 0) {
            std::cerr << "baseline shares no sweep points with this run\n";
            return 1;
        }
        const double mean_ratio =
            std::exp(log_ratio_sum / static_cast<double>(compared));
        std::cout << "flows/s vs baseline (geometric mean over " << compared
                  << " points): " << workload::TextTable::num(mean_ratio, 2)
                  << "x\n";
        if (mean_ratio < 0.8) {
            std::cerr << "REGRESSION: flows/s dropped "
                      << workload::TextTable::num((1 - mean_ratio) * 100, 0)
                      << "% vs baseline (gate: 20%)\n";
            return 1;
        }
        std::cout << "baseline check passed\n";
    }
    return 0;
}

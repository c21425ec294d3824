// Commuter-wave mobility study (DESIGN §11): a corridor of 4 cells, each
// with its own edge cluster, and a wave of UEs sweeping cell 0 -> 3 on the
// CorridorMobility trace. Every UE's first request deploys the service once
// at the corridor entrance; the question is what the controller does with
// the flows as the wave rolls through the cells.
//
// Two continuity arms over the identical trace and topology:
//   * resteer       -- the network follows the user, compute does not: every
//                      post-handover request pays the backhaul to cell 0.
//   * latency_delta -- migrate-and-warm: the controller warms an instance
//                      near the new cell in the background and cuts the flow
//                      over once it is ready; requests never wait on it.
//
// A third section replays the same corridor against the sharded control
// plane (one sim::Domain per cell, ControlPlaneShard each) and checks that
// the cross-shard client-state handoff conserves flows and stays
// byte-identical between a serial run and a wide one.
//
// Three hard gates (CI runs the --quick smoke and trusts the exit code):
//   1. Warm re-steer deploys nothing: the resteer arm ends the run with the
//      same single deployment it started with, however many handovers fire.
//   2. Migrate-and-warm must beat always-re-steer on post-handover p95
//      latency -- the reason the policy exists.
//   3. Handoff conservation + determinism: handed off == adopted, every
//      flow ends at the last cell, and the 4x4 channel-sync digest is
//      byte-identical to the 1x1 run.
//
// Flags: --quick (fewer UEs, faster sweep: CI smoke), --out <file>.
#include <algorithm>
#include <cstdint>
#include <fstream>
#include <iostream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "common.hpp"
#include "core/edge_platform.hpp"
#include "sdn/continuity.hpp"
#include "sdn/control_plane_shard.hpp"
#include "simcore/sharded_simulation.hpp"
#include "workload/metrics.hpp"
#include "workload/mobility.hpp"

namespace tedge::bench {
namespace {

constexpr std::uint32_t kCells = 4;
/// Backbone star: every secondary gNB is 2 ms from the corridor entrance.
const sim::SimTime kBackbone = sim::milliseconds(2);

/// Radio leg for a UE entering cell `k`. Strictly decreasing along the
/// corridor so the *current* cell is always the client's nearest entry --
/// the corridor is one-directional, so the newest link is the live one.
sim::SimTime radio(std::uint32_t k) {
    return sim::microseconds(5000 - 10 * static_cast<std::int64_t>(k));
}

struct ArmResult {
    std::string policy;
    std::size_t requests = 0;
    std::size_t requests_ok = 0;
    std::size_t deployments = 0;      ///< completed engine records
    std::uint64_t handovers = 0;
    std::uint64_t resteers = 0;
    std::uint64_t migrations = 0;
    std::uint64_t migrations_completed = 0;
    std::uint64_t stale_migrations = 0;
    std::uint64_t memory_hits = 0;
    double p50_ms = 0, p95_ms = 0, p99_ms = 0;          ///< all requests
    double post_p50_ms = 0, post_p95_ms = 0, post_p99_ms = 0; ///< after 1st handover
};

double percentile(const std::vector<double>& sorted_samples, double p) {
    if (sorted_samples.empty()) return 0;
    const auto index = static_cast<std::size_t>(
        p * static_cast<double>(sorted_samples.size() - 1));
    return sorted_samples[index];
}

ArmResult run_arm(const std::string& policy, bool quick) {
    const std::uint32_t ues = quick ? 4 : 16;
    const double speed_mps = quick ? 60.0 : 15.0;
    const auto horizon = quick ? sim::seconds(50) : sim::seconds(150);

    ArmResult result;
    result.policy = policy;

    core::EdgePlatform platform;
    // Corridor cells: the primary ingress is cell 0, the rest hang off the
    // backbone star. Each cell gets an edge host 100 us from its gNB (and a
    // 4 ms guard link to the primary so hosts cannot short-cut the backhaul).
    std::vector<net::OvsSwitch*> cells;
    cells.push_back(&platform.ingress());
    std::vector<net::NodeId> hosts;
    for (std::uint32_t c = 0; c < kCells; ++c) {
        if (c > 0) {
            cells.push_back(&platform.add_ingress("gnb" + std::to_string(c),
                                                  kBackbone));
        }
        const auto host = platform.add_edge_host(
            "edge" + std::to_string(c),
            net::Ipv4{10, 0, 0, static_cast<std::uint8_t>(2 + c)}, 12,
            c == 0 ? sim::microseconds(100) : sim::milliseconds(4));
        if (c > 0) {
            platform.topology().add_link(host, cells[c]->node(),
                                         sim::microseconds(100),
                                         sim::gbit_per_sec(10));
        }
        hosts.push_back(host);
    }
    platform.add_cloud();

    auto& registry = platform.add_registry({.host = "docker.io"});
    container::Image image;
    image.ref = *container::ImageRef::parse("web:1");
    image.layers = container::make_layers("web", sim::mib(8), 2);
    registry.put(image);

    container::AppProfile app;
    app.name = "web";
    app.init_median = sim::milliseconds(15);
    app.service_median = sim::microseconds(200);
    app.port = 80;
    platform.add_app_profile("web:1", app);

    for (std::uint32_t c = 0; c < kCells; ++c) {
        platform.add_docker_cluster("cell" + std::to_string(c), hosts[c]);
    }

    const net::ServiceAddress address{net::Ipv4{203, 0, 113, 90}, 80};
    platform.register_service(address, R"(
kind: Deployment
spec:
  template:
    spec:
      containers:
        - name: web
          image: web:1
          ports:
            - containerPort: 80
)");

    // Flows must outlive the whole sweep: no idle scale-down, long memory.
    sdn::ControllerConfig config;
    config.scale_down_idle = false;
    config.flow_memory.idle_timeout = sim::seconds(900);
    config.dispatcher.switch_idle_timeout = sim::seconds(900);
    config.dispatcher.continuity.policy = policy;
    // The corridor clusters start cold; a cold warm-up is still worth it.
    config.dispatcher.continuity.max_deploy_cost = sim::seconds(60);
    platform.start_controller(hosts[0], std::move(config));

    // The commuter wave: everyone departs cell 0 within a minute and sweeps
    // the corridor; the trace drives the platform through schedule-free
    // connect_client_to_ingress calls (the radio link appears on cell entry).
    std::vector<net::NodeId> ue_nodes;
    std::vector<bool> handed_over(ues, false);
    for (std::uint32_t u = 0; u < ues; ++u) {
        ue_nodes.push_back(platform.add_client(
            "ue" + std::to_string(u),
            net::Ipv4{10, 0, 1, static_cast<std::uint8_t>(1 + u)}, radio(0)));
    }
    workload::CorridorMobility::Options corridor_options;
    corridor_options.ues = ues;
    corridor_options.cells = kCells;
    corridor_options.speed_mps = speed_mps;
    corridor_options.departure_window = quick ? sim::seconds(5) : sim::seconds(60);
    corridor_options.seed = 7;
    workload::CorridorMobility corridor(corridor_options);
    workload::MobilityPump pump(
        platform.simulation(), corridor,
        [&](const workload::HandoverEvent& event) {
            handed_over[event.ue] = true;
            platform.connect_client_to_ingress(ue_nodes[event.ue],
                                               *cells[event.to_cell],
                                               radio(event.to_cell));
        });
    pump.start();

    // Each UE polls the service once a second for the whole traversal.
    std::size_t done = 0;
    std::vector<double> all_ms, post_ms;
    for (std::uint32_t u = 0; u < ues; ++u) {
        for (auto at = sim::milliseconds(100 + 10 * static_cast<std::int64_t>(u));
             at < horizon; at = at + sim::seconds(1)) {
            ++result.requests;
            platform.simulation().schedule_at(at, [&, u] {
                const bool post = handed_over[u];
                platform.http_request(
                    ue_nodes[u], address, 100, [&, post](const net::HttpResult& r) {
                        ++done;
                        if (!r.ok) return;
                        ++result.requests_ok;
                        all_ms.push_back(r.time_total.ms());
                        if (post) post_ms.push_back(r.time_total.ms());
                    });
            });
        }
    }
    drain_phase(platform.simulation(), [&] { return done == result.requests; });

    for (const auto& record : platform.deployment_engine().records()) {
        if (record.ok) ++result.deployments;
    }
    const auto& stats = platform.controller().dispatcher().stats();
    result.handovers = stats.handovers;
    result.resteers = stats.resteers;
    result.migrations = stats.migrations;
    result.migrations_completed = stats.migrations_completed;
    result.stale_migrations = stats.stale_migrations;
    result.memory_hits = stats.memory_hits;

    std::sort(all_ms.begin(), all_ms.end());
    std::sort(post_ms.begin(), post_ms.end());
    result.p50_ms = percentile(all_ms, 0.50);
    result.p95_ms = percentile(all_ms, 0.95);
    result.p99_ms = percentile(all_ms, 0.99);
    result.post_p50_ms = percentile(post_ms, 0.50);
    result.post_p95_ms = percentile(post_ms, 0.95);
    result.post_p99_ms = percentile(post_ms, 0.99);
    return result;
}

// ------------------------------------------- sharded handoff differential

struct HandoffResult {
    std::uint64_t events = 0;
    std::uint64_t messages = 0;
    std::int64_t now_ns = 0;
    std::string state;
    std::uint64_t handed = 0;
    std::uint64_t adopted = 0;
    std::size_t last_cell_flows = 0;
    bool conserved = false;
};

/// The corridor replayed against the sharded control plane: one domain per
/// cell, each UE's FlowMemory slice handed shard-to-shard at the closed-form
/// crossing instants.
HandoffResult run_sharded_handoff(std::size_t shards, std::size_t workers,
                                  std::uint32_t ues) {
    sim::ShardedSimulation::Options options;
    options.lookahead = sim::milliseconds(25);
    options.shards = shards;
    options.workers = workers;
    sim::ShardedSimulation sharded(options);

    std::vector<sim::Domain*> domains;
    for (std::uint32_t c = 0; c < kCells; ++c) {
        domains.push_back(&sharded.add_domain("cell" + std::to_string(c)));
    }
    sim::Domain& controller = sharded.add_domain("controller");
    sdn::ControlPlaneAggregator aggregator(controller);

    std::vector<std::unique_ptr<sdn::ControlPlaneShard>> planes;
    for (std::uint32_t c = 0; c < kCells; ++c) {
        sdn::ControlPlaneShard::Config config;
        config.flow_memory.idle_timeout = sim::seconds(600);
        config.flow_memory.scan_period = sim::seconds(5);
        config.flow_memory.track_clients = true;
        config.digest_period = sim::seconds(10);
        planes.push_back(std::make_unique<sdn::ControlPlaneShard>(
            *domains[c], aggregator, config));
        planes.back()->start();
    }

    workload::CorridorMobility::Options corridor_options;
    corridor_options.ues = ues;
    corridor_options.cells = kCells;
    corridor_options.seed = 11;
    workload::CorridorMobility corridor(corridor_options);

    const net::ServiceAddress address{net::Ipv4{203, 0, 113, 5}, 80};
    for (std::uint32_t u = 0; u < ues; ++u) {
        const net::Ipv4 ip{0x0a010000u + u};
        domains[0]->sim().schedule_at(
            sim::milliseconds(static_cast<std::int64_t>(u) + 1),
            [&planes, ip, address] {
                planes[0]->packet_in(ip, address, "web", net::NodeId{100}, 8080,
                                     "cell0");
            });
        for (std::uint32_t k = 1; k < kCells; ++k) {
            domains[k - 1]->sim().schedule_at(
                corridor.crossing_time(u, k), [&planes, ip, k] {
                    planes[k - 1]->handoff_client(ip, *planes[k]);
                });
        }
    }

    sharded.run();

    HandoffResult result;
    result.events = sharded.events_executed();
    result.messages = sharded.messages_delivered();
    result.now_ns = sharded.now().ns();
    std::ostringstream os;
    for (std::uint32_t c = 0; c < kCells; ++c) {
        os << "cell" << c << " out=" << planes[c]->handoffs_out()
           << " in=" << planes[c]->handoffs_in()
           << " handed=" << planes[c]->flows_handed_off()
           << " adopted=" << planes[c]->flows_adopted()
           << " live=" << planes[c]->memory().size() << "\n";
        result.handed += planes[c]->flows_handed_off();
        result.adopted += planes[c]->flows_adopted();
    }
    result.state = os.str();
    result.last_cell_flows = planes[kCells - 1]->memory().size();
    bool interior_empty = true;
    for (std::uint32_t c = 0; c + 1 < kCells; ++c) {
        interior_empty = interior_empty && planes[c]->memory().size() == 0;
    }
    result.conserved = result.handed == std::uint64_t{ues} * (kCells - 1) &&
                       result.adopted == result.handed &&
                       result.last_cell_flows == ues && interior_empty;
    return result;
}

std::string json_arm(const ArmResult& r) {
    using workload::TextTable;
    std::ostringstream out;
    out << "    {\"policy\": \"" << r.policy << "\", \"requests\": " << r.requests
        << ", \"requests_ok\": " << r.requests_ok
        << ", \"deployments\": " << r.deployments
        << ", \"handovers\": " << r.handovers << ", \"resteers\": " << r.resteers
        << ", \"migrations\": " << r.migrations
        << ", \"migrations_completed\": " << r.migrations_completed
        << ", \"stale_migrations\": " << r.stale_migrations
        << ", \"memory_hits\": " << r.memory_hits
        << ", \"p50_ms\": " << TextTable::num(r.p50_ms, 3)
        << ", \"p95_ms\": " << TextTable::num(r.p95_ms, 3)
        << ", \"p99_ms\": " << TextTable::num(r.p99_ms, 3)
        << ", \"post_handover_p50_ms\": " << TextTable::num(r.post_p50_ms, 3)
        << ", \"post_handover_p95_ms\": " << TextTable::num(r.post_p95_ms, 3)
        << ", \"post_handover_p99_ms\": " << TextTable::num(r.post_p99_ms, 3)
        << "}";
    return out.str();
}

} // namespace
} // namespace tedge::bench

int main(int argc, char** argv) {
    using namespace tedge;
    using namespace tedge::bench;
    using workload::TextTable;

    bool quick = false;
    std::string out_path = "BENCH_mobility.json";
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--quick") {
            quick = true;
        } else if (arg == "--out" && i + 1 < argc) {
            out_path = argv[++i];
        } else {
            std::cerr << "usage: bench_mobility [--quick] [--out <file>]\n";
            return 2;
        }
    }

    print_header("mobility",
                 "commuter wave over a 4-cell corridor: re-steer vs "
                 "migrate-and-warm continuity, plus the sharded handoff "
                 "differential");

    const std::vector<std::string> policies = {sdn::kResteerPolicy,
                                               sdn::kLatencyDeltaPolicy};
    std::vector<ArmResult> arms;
    for (const auto& policy : policies) {
        arms.push_back(run_arm(policy, quick));
    }

    TextTable table({"policy", "ok", "deploys", "handovers", "resteer",
                     "migrate", "cutover", "p95 [ms]", "post-HO p95 [ms]"});
    for (const auto& r : arms) {
        table.add_row({r.policy, std::to_string(r.requests_ok),
                       std::to_string(r.deployments),
                       std::to_string(r.handovers), std::to_string(r.resteers),
                       std::to_string(r.migrations),
                       std::to_string(r.migrations_completed),
                       TextTable::num(r.p95_ms, 2),
                       TextTable::num(r.post_p95_ms, 2)});
    }
    std::cout << table.str() << "\n";

    const std::uint32_t handoff_ues = quick ? 16 : 64;
    const auto serial = run_sharded_handoff(1, 1, handoff_ues);
    const auto wide = run_sharded_handoff(4, 4, handoff_ues);
    const bool identical = serial.events == wide.events &&
                           serial.messages == wide.messages &&
                           serial.now_ns == wide.now_ns &&
                           serial.state == wide.state;
    std::cout << "sharded handoff (" << handoff_ues << " UEs x " << kCells
              << " cells): handed=" << serial.handed
              << " adopted=" << serial.adopted
              << " at-last-cell=" << serial.last_cell_flows << "\n";

    std::ofstream out(out_path);
    out << "{\n  \"bench\": \"bench_mobility\",\n  \"quick\": "
        << (quick ? "true" : "false") << ",\n  \"cells\": " << kCells
        << ",\n  \"arms\": [\n";
    for (std::size_t i = 0; i < arms.size(); ++i) {
        out << json_arm(arms[i]) << (i + 1 < arms.size() ? "," : "") << "\n";
    }
    out << "  ],\n  \"sharded_handoff\": {\"ues\": " << handoff_ues
        << ", \"handed\": " << serial.handed
        << ", \"adopted\": " << serial.adopted
        << ", \"conserved\": " << (serial.conserved ? "true" : "false")
        << ", \"identical_1x1_vs_4x4\": " << (identical ? "true" : "false")
        << "}\n}\n";
    out.close();
    std::cout << "wrote " << out_path << "\n";

    bool failed = false;
    const auto by_name = [&](const char* name) -> const ArmResult& {
        for (const auto& r : arms) {
            if (r.policy == name) return r;
        }
        throw std::logic_error("policy missing from sweep");
    };
    const auto& resteer = by_name(sdn::kResteerPolicy);
    const auto& migrate = by_name(sdn::kLatencyDeltaPolicy);
    if (resteer.deployments != 1 || resteer.migrations != 0) {
        std::cerr << "MOBILITY GATE: warm re-steer deployed "
                  << resteer.deployments << " times (migrations="
                  << resteer.migrations << ") -- expected the single initial "
                  << "deployment and zero migrations\n";
        failed = true;
    } else {
        std::cout << "gate: warm-resteer-zero-deployments OK\n";
    }
    if (migrate.migrations_completed == 0 ||
        migrate.post_p95_ms >= resteer.post_p95_ms) {
        std::cerr << "MOBILITY GATE: migrate-and-warm post-handover p95 "
                  << migrate.post_p95_ms << " ms does not beat re-steer's "
                  << resteer.post_p95_ms << " ms (cutovers="
                  << migrate.migrations_completed << ")\n";
        failed = true;
    } else {
        std::cout << "gate: migrate-beats-resteer OK\n";
    }
    if (!serial.conserved || !wide.conserved || !identical) {
        std::cerr << "MOBILITY GATE: sharded handoff broke -- conserved(1x1)="
                  << serial.conserved << " conserved(4x4)=" << wide.conserved
                  << " identical=" << identical << "\n";
        failed = true;
    } else {
        std::cout << "invariant: handoff-conservation OK\n";
    }
    return failed ? 1 : 0;
}

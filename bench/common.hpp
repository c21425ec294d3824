// Shared experiment drivers for the per-figure bench binaries.
//
// Each paper experiment is reproduced with the paper's own methodology:
// 42 copies of one service type are registered, the bigFlows-like trace
// (1708 requests / 5 min) is replayed, and the first request of each service
// triggers an on-demand deployment whose phases the DeploymentEngine times.
#pragma once

#include <functional>
#include <string>
#include <vector>

#include "simcore/metrics_registry.hpp"
#include "simcore/sharded_simulation.hpp"
#include "simcore/simulation.hpp"
#include "simcore/stats.hpp"
#include "simcore/tracer.hpp"
#include "testbed/c3.hpp"
#include "workload/bigflows.hpp"
#include "workload/metrics.hpp"

namespace tedge::bench {

struct DeploymentExperimentOptions {
    std::string cluster_kind = "docker";  ///< "docker" or "k8s"
    std::string service_key = "nginx";
    bool pre_pull = true;     ///< images cached before the run
    bool pre_create = true;   ///< true: Scale Up only (fig 11); false: Create+Scale Up (fig 12)
    std::uint32_t num_services = 42;
    std::size_t num_requests = 1708;
    sim::SimTime horizon = sim::seconds(300);
    std::uint64_t seed = 1;
    /// Optional observability hooks, attached to the experiment's Simulation
    /// for the duration of the run (the tracer is detached again before the
    /// testbed is destroyed, keeping its recorded spans). Only use from
    /// single-threaded runs -- never with run_deployment_replications.
    sim::Tracer* tracer = nullptr;
    sim::MetricsRegistry* metrics = nullptr;
    /// 0: the platform owns a plain serial kernel (legacy path). >= 1: host
    /// the testbed in domain 0 of a ShardedSimulation. The C3 testbed is one
    /// strongly-coupled site -- its intra-EGS links are near-zero latency --
    /// so the partitioning rule maps the whole testbed to a single domain
    /// whatever the shard count; requesting more shards than domains just
    /// leaves lanes idle. Results are bit-identical to the serial path by
    /// the coordinator's single-domain equivalence. Set from TEDGE_SHARDS in
    /// the figure benches.
    std::size_t shards = 0;
};

/// TEDGE_SHARDS parsed as a shard count, or 0 when unset/invalid (the
/// legacy self-hosted kernel).
[[nodiscard]] std::size_t shards_from_env();

struct DeploymentExperimentResult {
    sim::SampleSet first_request_ms;  ///< deployment-triggering request totals
    sim::SampleSet warm_request_ms;   ///< requests served by a running instance
    sim::SampleSet wait_ready_ms;     ///< controller port-probe wait (figs 14/15)
    sim::SampleSet deploy_total_ms;   ///< engine total per deployment
    std::vector<sim::SimTime> deployment_start_times;  ///< for fig 10 binning
    workload::Trace trace;
    std::size_t failures = 0;
};

[[nodiscard]] DeploymentExperimentResult
run_deployment_experiment(const DeploymentExperimentOptions& options);

/// Run one experiment per options entry across a shared ThreadPool -- one
/// independent Simulation per task, so the kernel stays single-threaded and
/// deterministic while replications use all cores. Results come back in
/// input (seed) order, so merging them is reproducible regardless of which
/// replica finished first.
[[nodiscard]] std::vector<DeploymentExperimentResult>
run_deployment_replications(const std::vector<DeploymentExperimentOptions>& options);

/// Fig. 13: time to pull one service's image set onto a cold node, from its
/// home registry or through the private in-network registry.
struct PullMeasurement {
    double pull_ms = 0;
    sim::Bytes bytes = 0;
    std::size_t layers_downloaded = 0;
    std::size_t layers_cached = 0;
};
[[nodiscard]] PullMeasurement measure_pull(const std::string& service_key,
                                           bool private_registry,
                                           const std::string& pre_cached_service = "",
                                           std::uint64_t seed = 1);

/// Fig. 16: request time with the instance already running.
[[nodiscard]] sim::SampleSet measure_warm_requests(const std::string& cluster_kind,
                                                   const std::string& service_key,
                                                   int requests = 50,
                                                   std::uint64_t seed = 1);

/// Bench banner: experiment id, what the paper reports, how we reproduce it.
void print_header(const std::string& experiment, const std::string& paper_claim);

/// True when TEDGE_TRACE_ONLY is set in the environment: bench mains skip
/// the heavy figure tables / google-benchmark loops and only produce the
/// trace + metrics artifacts (used by CI to upload a trace without paying
/// for the full table).
[[nodiscard]] bool trace_only_mode();

/// True when either TEDGE_TRACE or TEDGE_TRACE_ONLY is set: the bench adds
/// a traced run and writes the artifacts. Off by default so the standard
/// bench output stays byte-identical with tracing disabled.
[[nodiscard]] bool trace_requested();

/// Write `<prefix>.trace.json` (Chrome trace_event; load in chrome://tracing
/// or Perfetto) and `<prefix>.metrics.txt` (flat metrics dump including the
/// per-phase histograms), then print a per-phase span summary to stdout.
void write_trace_artifacts(const std::string& prefix, const sim::Tracer& tracer,
                           const sim::MetricsRegistry& metrics);

/// Predicate-driven drain: execute events until `done()` returns true, then
/// finish the current `slice` so the clock lands where the old
/// `while (!done) run_until(now + slice)` polling loop left it -- phase
/// boundaries and downstream trace offsets stay bit-identical while the
/// drain itself no longer grinds through empty slices.
void drain_phase(sim::Simulation& sim, const std::function<bool()>& done,
                 sim::SimTime slice = sim::seconds(1));

} // namespace tedge::bench

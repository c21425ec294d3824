// Experiment runner: replays a request stream against a platform and
// collects per-request metrics. Benches that average independent
// simulations run one replay per seed on a sim::ThreadPool; the simulation
// kernel itself stays single-threaded and deterministic.
#pragma once

#include <vector>

#include "core/edge_platform.hpp"
#include "workload/http_client.hpp"
#include "workload/stream.hpp"
#include "workload/trace.hpp"

namespace tedge::workload {

struct TraceReplayOptions {
    /// Registered address per trace service index.
    std::vector<net::ServiceAddress> addresses;
    /// Request payload per service index (single entry = shared by all).
    std::vector<sim::Bytes> request_sizes = {120};
    /// Extra simulated time after the last event before giving up.
    sim::SimTime drain_slack = sim::seconds(180);
};

class TraceRunner {
public:
    TraceRunner(core::EdgePlatform& platform, std::vector<net::NodeId> client_nodes);

    /// Replay a request stream; returns when every request completed (or the
    /// drain deadline passed). The stream is pulled one event at a time --
    /// exactly one workload arrival is pending in the event queue at any
    /// moment, so the kernel holds no per-request closures. What a replay
    /// keeps per request is the collector's 40-byte record, one per request,
    /// plus whatever the stream still buffers (BigFlowsStream frees its
    /// trace as it is emitted).
    MetricsCollector& replay(RequestStream& stream, const TraceReplayOptions& options);

    /// Compatibility wrapper: replay a materialized trace (streams it
    /// through a TraceView).
    MetricsCollector& replay(const Trace& trace, const TraceReplayOptions& options);

    [[nodiscard]] MetricsCollector& metrics() { return metrics_; }

private:
    core::EdgePlatform& platform_;
    std::vector<net::NodeId> clients_;
    MetricsCollector metrics_;
};

} // namespace tedge::workload

#include "workload/runner.hpp"

#include <algorithm>
#include <cstdint>
#include <optional>
#include <stdexcept>
#include <string>

namespace tedge::workload {

TraceRunner::TraceRunner(core::EdgePlatform& platform,
                         std::vector<net::NodeId> client_nodes)
    : platform_(platform), clients_(std::move(client_nodes)) {
    if (clients_.empty()) throw std::invalid_argument("TraceRunner: no clients");
}

MetricsCollector& TraceRunner::replay(RequestStream& stream,
                                      const TraceReplayOptions& options) {
    if (options.addresses.size() < stream.service_count()) {
        throw std::invalid_argument("TraceRunner: not enough addresses for trace");
    }
    if (options.request_sizes.empty()) {
        throw std::invalid_argument("TraceRunner: request_sizes empty");
    }

    auto& sim = platform_.simulation();
    HttpClient client(platform_.network(), metrics_);

    // Pre-size the kernel's heap array when the stream announces its
    // length. The pump holds one pending arrival, but each issued request
    // fans out into a burst of in-flight network/deployment events; cap the
    // hint so a million-request stream does not reserve entries it will
    // never use concurrently. The collector keeps every record, so it is reserved in
    // full: growing it by doubling copies the records and briefly holds
    // both copies, which sets the replay's peak memory.
    if (const auto announced = stream.total()) {
        sim.reserve_events(std::min<std::uint64_t>(*announced, 65536));
        metrics_.reserve(metrics_.count() + *announced);
    }
    // One tag per service index: each resolves its collector series once,
    // at that service's first successful completion.
    std::vector<RequestTag> tags(stream.service_count());
    for (std::uint32_t service = 0; service < tags.size(); ++service) {
        tags[service].name = "svc" + std::to_string(service);
    }

    // Trace times are relative to the start of the replay, not to the
    // simulation epoch (setup work may already have consumed virtual time).
    const sim::SimTime offset = sim.now();

    // Self-rescheduling pump: hold exactly one pending arrival. `fire`
    // schedules the successor before issuing the current request so that,
    // when two arrivals share a timestamp, the successor is enqueued ahead
    // of anything the request handler schedules at the same instant.
    std::optional<TraceEvent> pending = stream.next();
    std::size_t issued = 0;
    sim::SimTime last_at{};
    std::function<void()> fire = [&] {
        const TraceEvent event = *pending;
        pending = stream.next();
        if (pending) sim.schedule_at(offset + pending->at, [&fire] { fire(); });
        const auto node = clients_[event.client % clients_.size()];
        const auto& address = options.addresses[event.service];
        const sim::Bytes size =
            options.request_sizes[event.service % options.request_sizes.size()];
        ++issued;
        last_at = event.at;
        client.request(node, event.client, address, size, tags[event.service]);
    };
    if (pending) sim.schedule_at(offset + pending->at, [&fire] { fire(); });

    // Drain: predicate-driven -- execute events exactly until every request
    // has completed (or the deadline passes). Streams that know their
    // horizon up front (traces, bigflows) get the fixed deadline the old
    // replay used; open-ended streams anchor on the last issued arrival.
    const auto total = stream.total();
    const auto known_horizon = stream.horizon();
    const auto deadline = [&] {
        return offset + (known_horizon ? *known_horizon : last_at) +
               options.drain_slack;
    };
    const auto busy = [&] {
        if (sim.now() >= deadline()) return false;
        if (pending) return true;
        return metrics_.count() < (total ? *total : issued);
    };
    const bool entered = busy();
    sim.run_while(busy);
    // The old slice loop left the clock on the next whole-second boundary
    // past the last completion; finish that slice so trailing bookkeeping
    // (deployment-record finalisation, periodic sweeps) observes identical
    // timestamps and downstream phases start at the same instant.
    if (entered) {
        const std::int64_t slice_ns = sim::seconds(1).ns();
        const std::int64_t rel = (sim.now() - offset).ns();
        const std::int64_t slices = std::max<std::int64_t>(1, (rel + slice_ns - 1) / slice_ns);
        sim.run_until(offset + sim::nanoseconds(slices * slice_ns));
    }
    return metrics_;
}

MetricsCollector& TraceRunner::replay(const Trace& trace,
                                      const TraceReplayOptions& options) {
    TraceView view(trace);
    return replay(view, options);
}

} // namespace tedge::workload

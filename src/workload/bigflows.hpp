// Synthetic bigFlows-like trace generator.
//
// The paper extracted all TCP conversations to public port-80 addresses
// from the five-minute bigFlows.pcap capture and kept destinations with at
// least 20 requests: 42 services, 1708 requests (fig. 9), with service
// deployments bursting to eight per second at the start (fig. 10). We
// regenerate traces matching those published marginals: Zipf-skewed
// service popularity with a floor, Poisson-ish arrivals over the horizon.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "simcore/random.hpp"
#include "workload/stream.hpp"
#include "workload/trace.hpp"

namespace tedge::workload {

struct BigFlowsOptions {
    std::uint32_t services = 42;
    std::size_t requests = 1708;
    sim::SimTime horizon = sim::seconds(300);
    std::uint32_t clients = 20;
    double zipf_s = 0.9;            ///< popularity skew
    std::size_t min_requests = 20;  ///< the paper's >= 20 requests filter
    std::uint64_t seed = 1;
};

/// Streaming bigFlows generator: emits the exact same event sequence as
/// `synthesize_bigflows` (same seed, same draw order, same order by
/// (at, client, service)) through the RequestStream interface, so the
/// runner pulls events one at a time instead of pre-scheduling the trace.
///
/// The sequence is globally sorted over iid per-service draws from one
/// shared RNG, so the first emitted event can depend on the last draw: the
/// stream must hold the sorted trace, 16 bytes per event. It holds it in
/// 1 MiB chunks and frees each chunk as soon as next() has emitted its last
/// event, so a replay's memory for the trace falls as the replay advances.
/// Each chunk is allocated on its own and is large enough for glibc to map
/// it separately, which is what makes a freed chunk go back to the OS; the
/// chunks are all allocated before the stream frees anything large, since a
/// freed mapping raises glibc's mapping threshold.
class BigFlowsStream final : public RequestStream {
public:
    /// Events per storage chunk: 65,536 events of 16 bytes, 1 MiB.
    static constexpr std::size_t kChunkEvents = std::size_t{1} << 16;

    explicit BigFlowsStream(const BigFlowsOptions& options = {});

    std::optional<TraceEvent> next() override;
    [[nodiscard]] std::uint32_t service_count() const override {
        return options_.services;
    }
    [[nodiscard]] std::uint32_t client_count() const override {
        return options_.clients;
    }
    /// The trace's length; still answers after events have been emitted.
    [[nodiscard]] std::optional<std::size_t> total() const override { return total_; }
    /// Timestamp of the last event (mirrors Trace::horizon()); still answers
    /// after events have been emitted.
    [[nodiscard]] std::optional<sim::SimTime> horizon() const override {
        return horizon_;
    }
    /// Events the stream still holds in memory: the unemitted ones, rounded
    /// out to the start of their chunk. 0 once the last event is out.
    [[nodiscard]] std::size_t held() const {
        return cursor_ == total_ ? 0 : total_ - (cursor_ & ~(kChunkEvents - 1));
    }

private:
    BigFlowsOptions options_;
    std::vector<std::unique_ptr<TraceEvent[]>> chunks_;
    std::size_t total_ = 0;
    sim::SimTime horizon_{};
    std::size_t cursor_ = 0;
};

/// The trace's events in draw order: service by service, each service's
/// arrivals in the order they were drawn. BigFlowsStream emits exactly
/// these, sorted by (at, client, service); tests sort them with std::sort
/// as the stream's oracle.
[[nodiscard]] std::vector<TraceEvent> bigflows_draws(const BigFlowsOptions& options);

/// Generate a trace with the given marginals. Deterministic per seed.
/// Guarantees: exactly `requests` events, every service receives at least
/// `min_requests`, all events within [0, horizon). Implemented as a drain
/// of BigFlowsStream, so the two are identical event-for-event.
[[nodiscard]] Trace synthesize_bigflows(const BigFlowsOptions& options = {});

} // namespace tedge::workload

// Lazy request streams: the workload side of the scale path.
//
// A RequestStream hands out TraceEvents one at a time in nondecreasing time
// order; the TraceRunner pulls the next event only when the previous one has
// fired, so the event kernel holds exactly one pending workload arrival at
// any moment instead of the whole trace. At a million concurrent flows the
// pre-change replay materialized one heap-allocated closure per request up
// front (~hundreds of MB); a pulled stream keeps workload memory flat.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <vector>

#include "simcore/random.hpp"
#include "simcore/time.hpp"
#include "workload/trace.hpp"

namespace tedge::sim {
class Simulation;
}

namespace tedge::workload {

class RequestStream {
public:
    virtual ~RequestStream() = default;

    /// The next event (nondecreasing `at`), or nullopt when exhausted.
    virtual std::optional<TraceEvent> next() = 0;

    /// Largest service index + 1 the stream can emit.
    [[nodiscard]] virtual std::uint32_t service_count() const = 0;
    /// Largest client index + 1 the stream can emit.
    [[nodiscard]] virtual std::uint32_t client_count() const = 0;
    /// Total number of events the stream will emit, when known up front.
    [[nodiscard]] virtual std::optional<std::size_t> total() const = 0;
    /// Upper bound on event timestamps, when known up front (drain-deadline
    /// anchor; streams with data-dependent length return nullopt and the
    /// runner anchors on the last emitted event instead).
    [[nodiscard]] virtual std::optional<sim::SimTime> horizon() const = 0;
};

/// Stream view over an already-materialized Trace (compat path: everything
/// that still builds a Trace replays through the same streaming runner).
/// The Trace must outlive the view.
class TraceView final : public RequestStream {
public:
    explicit TraceView(const Trace& trace) : trace_(&trace) {}

    std::optional<TraceEvent> next() override {
        if (cursor_ >= trace_->size()) return std::nullopt;
        return trace_->events()[cursor_++];
    }
    [[nodiscard]] std::uint32_t service_count() const override {
        return trace_->service_count();
    }
    [[nodiscard]] std::uint32_t client_count() const override {
        return trace_->client_count();
    }
    [[nodiscard]] std::optional<std::size_t> total() const override {
        return trace_->size();
    }
    [[nodiscard]] std::optional<sim::SimTime> horizon() const override {
        return trace_->horizon();
    }

private:
    const Trace* trace_;
    std::size_t cursor_ = 0;
};

/// Open-ended synthetic workload with O(services) state: one Poisson arrival
/// process per service, rates Zipf-weighted to `total_rate_per_s`, merged on
/// the fly through a binary heap of per-service next-arrival times. Clients
/// are drawn uniformly per event. Deterministic per seed; memory does not
/// depend on `limit`, which is what lets bench_scale sweep to 10^6 flows
/// with a flat footprint.
class PoissonStream final : public RequestStream {
public:
    struct Options {
        std::uint32_t services = 42;
        std::uint32_t clients = 20;
        double zipf_s = 0.9;             ///< service popularity skew
        double total_rate_per_s = 100.0; ///< aggregate arrival rate
        std::size_t limit = 10'000;      ///< events to emit
        std::uint64_t seed = 1;
    };

    explicit PoissonStream(const Options& options);

    /// Options for shard `shard` of `num_shards` parallel streams jointly
    /// equivalent in load to `base`: the aggregate rate and event budget are
    /// split evenly (remainder events to the low shards) and the seed is
    /// derived statelessly from (base.seed, shard) -- so shard s draws the
    /// same sequence whether it runs among 2 shards or 8, and no two shards
    /// share a stream.
    [[nodiscard]] static Options shard_options(const Options& base,
                                               std::uint32_t shard,
                                               std::uint32_t num_shards);

    std::optional<TraceEvent> next() override;
    [[nodiscard]] std::uint32_t service_count() const override {
        return options_.services;
    }
    [[nodiscard]] std::uint32_t client_count() const override {
        return options_.clients;
    }
    [[nodiscard]] std::optional<std::size_t> total() const override {
        return options_.limit;
    }
    [[nodiscard]] std::optional<sim::SimTime> horizon() const override {
        return std::nullopt; // data-dependent: ends after `limit` arrivals
    }

private:
    struct Arrival {
        sim::SimTime at;
        std::uint32_t service;
    };
    /// Min-heap ordered by (at, service) -- service as tie-break keeps the
    /// merge deterministic.
    [[nodiscard]] static bool later(const Arrival& a, const Arrival& b) {
        if (a.at != b.at) return a.at > b.at;
        return a.service > b.service;
    }

    Options options_;
    sim::Rng rng_;
    std::vector<double> mean_gap_s_;  ///< per-service mean inter-arrival
    std::vector<Arrival> heap_;
    std::size_t emitted_ = 0;
};

/// Pump a RequestStream through a kernel one pending arrival at a time (the
/// TraceRunner pattern, packaged): exactly one workload event is in the
/// queue at any moment, and the re-arm closure captures a single pointer so
/// it stays inside the std::function small-object buffer -- no per-event
/// heap allocation. The handler receives the fired event plus a peek at the
/// next pending one (already scheduled), so call sites can software-pipeline
/// work for it (e.g. FlowMemory::prefetch). One pump per domain is how a
/// sharded run feeds per-shard workload into per-shard kernels.
class StreamPump {
public:
    using Handler = std::function<void(const TraceEvent& event,
                                       const std::optional<TraceEvent>& next)>;

    /// All three referents must outlive the pump (or the simulation must not
    /// run past the pump's destruction).
    StreamPump(sim::Simulation& sim, RequestStream& stream, Handler on_event);

    /// Schedule the first pending arrival (no-op on an exhausted stream).
    void start();

    /// Events fired so far.
    [[nodiscard]] std::size_t delivered() const { return delivered_; }
    /// True once the stream is exhausted and the last event has fired.
    [[nodiscard]] bool done() const { return started_ && !pending_; }

private:
    void fire();

    sim::Simulation* sim_;
    RequestStream* stream_;
    Handler on_event_;
    std::optional<TraceEvent> pending_;
    std::size_t delivered_ = 0;
    bool started_ = false;
};

} // namespace tedge::workload

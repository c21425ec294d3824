#include "workload/bigflows.hpp"

#include <algorithm>
#include <stdexcept>

namespace tedge::workload {

BigFlowsStream::BigFlowsStream(const BigFlowsOptions& options)
    : options_(options) {
    if (options.services == 0 || options.clients == 0) {
        throw std::invalid_argument("bigflows: need >= 1 service and client");
    }
    if (options.requests < options.services * options.min_requests) {
        throw std::invalid_argument(
            "bigflows: requests cannot satisfy the per-service minimum");
    }

    sim::Rng rng(options.seed);

    // --- per-service request counts: floor + Zipf-distributed remainder --
    std::vector<std::size_t> counts(options.services, options.min_requests);
    std::size_t assigned = options.services * options.min_requests;
    const sim::ZipfDistribution zipf(options.services, options.zipf_s);
    std::vector<double> weights(options.services);
    for (std::uint32_t s = 0; s < options.services; ++s) weights[s] = zipf.pmf(s);
    const sim::WeightedSampler pick(std::move(weights));
    while (assigned < options.requests) {
        ++counts[pick(rng)];
        ++assigned;
    }

    // --- arrival times: per-service Poisson processes over the horizon ---
    // Uniform order statistics are equivalent to conditioned Poisson
    // arrivals; first requests therefore concentrate near the start for
    // popular services, reproducing fig. 10's early deployment burst.
    events_.reserve(options.requests);
    const double horizon_s = options.horizon.seconds();
    for (std::uint32_t s = 0; s < options.services; ++s) {
        for (std::size_t i = 0; i < counts[s]; ++i) {
            TraceEvent event;
            event.at = sim::from_seconds(rng.uniform(0.0, horizon_s));
            event.client = static_cast<std::uint32_t>(
                rng.uniform_int(0, static_cast<std::int64_t>(options.clients) - 1));
            event.service = s;
            events_.push_back(event);
        }
    }
    // Same ordering as Trace::finalize() so the stream and the materialized
    // trace emit identical sequences.
    std::sort(events_.begin(), events_.end(),
              [](const TraceEvent& a, const TraceEvent& b) {
                  if (a.at != b.at) return a.at < b.at;
                  if (a.client != b.client) return a.client < b.client;
                  return a.service < b.service;
              });
}

std::optional<TraceEvent> BigFlowsStream::next() {
    if (cursor_ >= events_.size()) return std::nullopt;
    return events_[cursor_++];
}

Trace synthesize_bigflows(const BigFlowsOptions& options) {
    BigFlowsStream stream(options);
    Trace trace;
    while (const auto event = stream.next()) trace.add(*event);
    trace.finalize(); // stable sort of an already-sorted sequence: no-op
    return trace;
}

} // namespace tedge::workload

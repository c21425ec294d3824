#include "workload/stream.hpp"

#include <algorithm>
#include <stdexcept>
#include <utility>

#include "simcore/simulation.hpp"

namespace tedge::workload {

PoissonStream::PoissonStream(const Options& options)
    : options_(options), rng_(options.seed) {
    if (options_.services == 0 || options_.clients == 0) {
        throw std::invalid_argument("PoissonStream: need >= 1 service and client");
    }
    if (options_.total_rate_per_s <= 0) {
        throw std::invalid_argument("PoissonStream: rate must be positive");
    }
    const sim::ZipfDistribution zipf(options_.services, options_.zipf_s);
    mean_gap_s_.resize(options_.services);
    heap_.reserve(options_.services);
    for (std::uint32_t s = 0; s < options_.services; ++s) {
        const double rate = options_.total_rate_per_s * zipf.pmf(s);
        mean_gap_s_[s] = 1.0 / rate;
        heap_.push_back(Arrival{sim::from_seconds(rng_.exponential(mean_gap_s_[s])), s});
    }
    std::make_heap(heap_.begin(), heap_.end(), later);
}

std::optional<TraceEvent> PoissonStream::next() {
    if (emitted_ >= options_.limit) return std::nullopt;
    std::pop_heap(heap_.begin(), heap_.end(), later);
    const Arrival arrival = heap_.back();

    TraceEvent event;
    event.at = arrival.at;
    event.service = arrival.service;
    event.client = static_cast<std::uint32_t>(rng_.uniform_int(
        0, static_cast<std::int64_t>(options_.clients) - 1));

    heap_.back() = Arrival{
        arrival.at +
            sim::from_seconds(rng_.exponential(mean_gap_s_[arrival.service])),
        arrival.service};
    std::push_heap(heap_.begin(), heap_.end(), later);
    ++emitted_;
    return event;
}

PoissonStream::Options PoissonStream::shard_options(const Options& base,
                                                    std::uint32_t shard,
                                                    std::uint32_t num_shards) {
    if (num_shards == 0 || shard >= num_shards) {
        throw std::invalid_argument("PoissonStream::shard_options: bad shard index");
    }
    Options options = base;
    options.total_rate_per_s = base.total_rate_per_s / num_shards;
    options.limit = base.limit / num_shards +
                    (shard < base.limit % num_shards ? 1 : 0);
    // Stateless derivation keyed by the *stable* shard id only: shard s's
    // arrival sequence is the same at any shard count, and distinct shards
    // never correlate.
    options.seed = sim::Rng::stream_seed(base.seed, shard);
    return options;
}

StreamPump::StreamPump(sim::Simulation& sim, RequestStream& stream,
                       Handler on_event)
    : sim_(&sim), stream_(&stream), on_event_(std::move(on_event)) {}

void StreamPump::start() {
    if (started_) return;
    started_ = true;
    pending_ = stream_->next();
    if (pending_) sim_->schedule_at(pending_->at, [this] { fire(); });
}

void StreamPump::fire() {
    const TraceEvent event = *pending_;
    // Pull and schedule the successor *before* handling: the handler sees
    // the next arrival and can start its memory loads early.
    pending_ = stream_->next();
    if (pending_) sim_->schedule_at(pending_->at, [this] { fire(); });
    on_event_(event, pending_);
    ++delivered_;
}

} // namespace tedge::workload

#include "workload/bigflows.hpp"

#include <algorithm>
#include <bit>
#include <stdexcept>
#include <utility>

namespace tedge::workload {

namespace {

constexpr int kChunkShift = 16;
static_assert(BigFlowsStream::kChunkEvents == std::size_t{1} << kChunkShift);
constexpr std::size_t kChunkMask = BigFlowsStream::kChunkEvents - 1;
/// The radix sort's widest digit: 4,096 buckets, whose offsets fit in L1.
constexpr int kMaxDigitBits = 12;

using Chunks = std::vector<std::unique_ptr<TraceEvent[]>>;

void validate(const BigFlowsOptions& options) {
    if (options.services == 0 || options.clients == 0) {
        throw std::invalid_argument("bigflows: need >= 1 service and client");
    }
    if (options.requests < options.services * options.min_requests) {
        throw std::invalid_argument(
            "bigflows: requests cannot satisfy the per-service minimum");
    }
    if (options.horizon < sim::SimTime{}) {
        throw std::invalid_argument("bigflows: negative horizon");
    }
}

/// Draw the trace's events, passing each to `emit` in draw order: service
/// by service, each service's arrivals in the order they are drawn.
template <typename Emit>
void draw(const BigFlowsOptions& options, Emit&& emit) {
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
    const double horizon_s = options.horizon.seconds();
    for (std::uint32_t s = 0; s < options.services; ++s) {
        for (std::size_t i = 0; i < counts[s]; ++i) {
            TraceEvent event;
            event.at = sim::from_seconds(rng.uniform(0.0, horizon_s));
            event.client = static_cast<std::uint32_t>(
                rng.uniform_int(0, static_cast<std::int64_t>(options.clients) - 1));
            event.service = s;
            emit(event);
        }
    }
}

/// Storage for `events` events: full chunks and a last one cut to size.
Chunks allocate(std::size_t events) {
    Chunks chunks;
    chunks.reserve((events + kChunkMask) >> kChunkShift);
    for (std::size_t first = 0; first < events; first += BigFlowsStream::kChunkEvents) {
        chunks.push_back(std::make_unique_for_overwrite<TraceEvent[]>(
            std::min(BigFlowsStream::kChunkEvents, events - first)));
    }
    return chunks;
}

TraceEvent& slot(const Chunks& chunks, std::size_t index) {
    return chunks[index >> kChunkShift][index & kChunkMask];
}

/// Call `fn` on the first `n` events of `chunks`, in order.
template <typename Fn>
void for_each_event(const Chunks& chunks, std::size_t n, Fn&& fn) {
    for (std::size_t c = 0; c < chunks.size(); ++c) {
        const TraceEvent* events = chunks[c].get();
        const std::size_t len = std::min(BigFlowsStream::kChunkEvents, n - (c << kChunkShift));
        for (std::size_t j = 0; j < len; ++j) fn(events[j]);
    }
}

/// Sort `n` events in draw order into (at, client, service) order, the
/// order std::sort gives with Trace::finalize's comparator. A stable LSD
/// radix sort on the key (at, client) does it: draw order is already
/// service order, and a stable sort keeps that order among equal keys.
/// Events equal in all three fields are equal in every byte, so the result
/// is exactly std::sort's. Every pass scatters into chunks, so the sorted
/// trace never needs a copy of its own; the chunks that do not end up
/// holding it are freed on return, after all chunks have been allocated.
Chunks sort_events(Chunks events, std::size_t n, int client_bits, int key_bits) {
    const int passes = (key_bits + kMaxDigitBits - 1) / kMaxDigitBits;
    if (passes == 0 || n < 2) return events;
    const int digit_bits = (key_bits + passes - 1) / passes;
    const std::size_t buckets = std::size_t{1} << digit_bits;
    const auto key = [client_bits](const TraceEvent& e) {
        return static_cast<std::uint64_t>(e.at.ns()) << client_bits | e.client;
    };

    // One read pass counts every digit.
    std::vector<std::size_t> offsets(static_cast<std::size_t>(passes) * buckets);
    for_each_event(events, n, [&](const TraceEvent& e) {
        const std::uint64_t k = key(e);
        for (int p = 0; p < passes; ++p) {
            ++offsets[static_cast<std::size_t>(p) * buckets +
                      ((k >> (p * digit_bits)) & (buckets - 1))];
        }
    });

    Chunks scratch = allocate(n);
    for (int p = 0; p < passes; ++p) {
        std::size_t* offset = &offsets[static_cast<std::size_t>(p) * buckets];
        // A digit every key shares leaves the order as it is.
        if (std::find(offset, offset + buckets, n) != offset + buckets) continue;
        std::size_t start = 0;
        for (std::size_t b = 0; b < buckets; ++b) start += std::exchange(offset[b], start);
        const int shift = p * digit_bits;
        for_each_event(events, n, [&](const TraceEvent& e) {
            slot(scratch, offset[(key(e) >> shift) & (buckets - 1)]++) = e;
        });
        std::swap(events, scratch);
    }
    return events;
}

} // namespace

BigFlowsStream::BigFlowsStream(const BigFlowsOptions& options)
    : options_(options), total_(options.requests) {
    validate(options);

    Chunks events = allocate(total_);
    std::size_t drawn = 0;
    std::int64_t latest = 0;
    draw(options, [&](const TraceEvent& event) {
        latest = std::max(latest, event.at.ns());
        slot(events, drawn++) = event;
    });
    const int client_bits = std::bit_width(options.clients - 1);
    const int key_bits = std::bit_width(static_cast<std::uint64_t>(latest)) + client_bits;
    if (key_bits > 64) {
        throw std::invalid_argument("bigflows: horizon and client count overflow the sort key");
    }
    chunks_ = sort_events(std::move(events), total_, client_bits, key_bits);
    if (total_ > 0) horizon_ = slot(chunks_, total_ - 1).at;
}

std::optional<TraceEvent> BigFlowsStream::next() {
    if (cursor_ == total_) return std::nullopt;
    const std::size_t chunk = cursor_ >> kChunkShift;
    const TraceEvent event = chunks_[chunk][cursor_ & kChunkMask];
    ++cursor_;
    // A chunk goes back as soon as its last event is out.
    if ((cursor_ & kChunkMask) == 0 || cursor_ == total_) chunks_[chunk].reset();
    return event;
}

std::vector<TraceEvent> bigflows_draws(const BigFlowsOptions& options) {
    validate(options);
    std::vector<TraceEvent> events;
    events.reserve(options.requests);
    draw(options, [&](const TraceEvent& event) { events.push_back(event); });
    return events;
}

Trace synthesize_bigflows(const BigFlowsOptions& options) {
    BigFlowsStream stream(options);
    Trace trace;
    while (const auto event = stream.next()) trace.add(*event);
    trace.finalize(); // the stream's order already is finalize()'s: no change
    return trace;
}

} // namespace tedge::workload

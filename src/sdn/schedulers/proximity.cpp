#include "sdn/schedulers/proximity.hpp"

#include <algorithm>

namespace tedge::sdn {

ScheduleResult ProximityScheduler::decide(const ScheduleContext& ctx) {
    ScheduleResult result;
    // States by client->cluster latency (ascending); unreachable clusters
    // are dropped. Equal latencies keep context order, as a stable sort
    // would: the states are one array, so their addresses are that order.
    by_latency_.clear();
    for (const auto& state : ctx.states) {
        const auto path = ctx.topo->path(ctx.client, state.cluster->location());
        if (!path) continue;
        by_latency_.emplace_back(path->latency, &state);
    }
    std::sort(by_latency_.begin(), by_latency_.end());
    if (by_latency_.empty()) return result; // no reachable edge -> cloud

    const auto* optimal = by_latency_.front().second;

    // Instance already running (or starting) in the optimal edge: FAST=BEST.
    if (const auto ready = optimal->first_ready()) {
        result.fast = Choice{optimal->cluster, ready};
        return result;
    }
    if (!optimal->instances.empty()) {
        // An instance is starting there; the request waits for it.
        result.fast = Choice{optimal->cluster, std::nullopt};
        return result;
    }

    if (wait_) {
        // With waiting: hold the request while deploying in the optimal edge.
        result.fast = Choice{optimal->cluster, std::nullopt};
        return result;
    }

    // Without waiting: serve the request from the nearest ready instance
    // (or the cloud) while deploying in the optimal edge in parallel.
    for (const auto& [latency, state] : by_latency_) {
        if (const auto ready = state->first_ready()) {
            result.fast = Choice{state->cluster, ready};
            break;
        }
    }
    result.best = Choice{optimal->cluster, std::nullopt};
    return result;
}

namespace detail {
void register_proximity(SchedulerRegistry& registry) {
    registry.register_factory(kProximityScheduler, [](const yamlite::Node& params) {
        bool wait = true;
        if (const auto* w = params.find("wait")) {
            wait = w->as_bool().value_or(true);
        }
        return std::make_unique<ProximityScheduler>(wait);
    });
}
} // namespace detail

} // namespace tedge::sdn

// Proximity scheduler: the paper's default policy.
//
// BEST is always the lowest-latency cluster from the client's current
// location. FAST depends on the waiting policy:
//  - wait=true  (on-demand deployment *with* waiting): FAST = BEST even when
//    no instance runs there yet; the request is held during deployment.
//  - wait=false (*without* waiting): FAST = the nearest cluster with a ready
//    instance (possibly further away), or empty (forward to the cloud);
//    BEST is deployed to in parallel.
#pragma once

#include <utility>
#include <vector>

#include "sdn/scheduler.hpp"

namespace tedge::sdn {

class ProximityScheduler final : public GlobalScheduler {
public:
    explicit ProximityScheduler(bool wait_for_deployment = true)
        : wait_(wait_for_deployment) {}

    [[nodiscard]] const std::string& name() const override { return name_; }
    [[nodiscard]] ScheduleResult decide(const ScheduleContext& ctx) override;

    [[nodiscard]] bool waits() const { return wait_; }

private:
    bool wait_;
    std::string name_ = kProximityScheduler;
    /// Reachable states by client->cluster latency, rebuilt by each decide()
    /// in place, so a warm decision allocates nothing.
    std::vector<std::pair<sim::SimTime, const ScheduleContext::ClusterState*>> by_latency_;
};

} // namespace tedge::sdn

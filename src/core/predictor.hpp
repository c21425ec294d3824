// Proactive (predictive) deployment.
//
// The paper's introduction argues that prediction can pre-deploy services
// "just in time" but can never reach a 100% hit rate -- which is exactly why
// on-demand deployment is needed as the fallback. This component provides
// the other half of that story: an exponentially-weighted popularity
// predictor that watches request arrivals and keeps the top-K services
// pre-deployed (and warm) in a target cluster, scaling down services whose
// popularity decays below a threshold.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "core/deployment.hpp"
#include "sdn/service_registry.hpp"
#include "simcore/logging.hpp"

namespace tedge::core {

struct PredictorConfig {
    /// Re-evaluate the top-K set every period.
    sim::SimTime period = sim::seconds(10);
    /// EWMA decay factor per period (0 < decay < 1; higher = longer memory).
    double decay = 0.7;
    /// Number of services to keep pre-deployed.
    std::size_t top_k = 4;
    /// Scores below this are considered cold; pre-deployed services whose
    /// score decays under it are scaled down.
    double min_score = 0.5;
};

class PredictiveDeployer {
public:
    PredictiveDeployer(sim::Simulation& sim, DeploymentEngine& engine,
                       orchestrator::Cluster& target,
                       const sdn::ServiceRegistry& registry,
                       PredictorConfig config = {});
    ~PredictiveDeployer();

    /// Feed an observed request for a registered service address. Typically
    /// wired to the workload generator or the dispatcher's packet-in path.
    void observe(const net::ServiceAddress& address);

    /// Current popularity score of a service (0 when unknown).
    [[nodiscard]] double score(const std::string& service_name) const;

    /// Services currently held pre-deployed by the predictor.
    [[nodiscard]] std::vector<std::string> predeployed() const;

    [[nodiscard]] std::uint64_t deploys_triggered() const { return deploys_; }
    [[nodiscard]] std::uint64_t scale_downs_triggered() const { return downs_; }

    /// Run one prediction cycle now (also runs periodically).
    void evaluate();

private:
    struct Entry {
        std::string service;
        double score = 0.0;
        double pending = 0.0;  ///< arrivals since the last decay step
        bool predeployed = false;
    };

    sim::Simulation& sim_;
    DeploymentEngine& engine_;
    orchestrator::Cluster& target_;
    const sdn::ServiceRegistry& registry_;
    PredictorConfig config_;
    sim::Logger log_;
    std::map<std::string, Entry> entries_;  ///< by service name
    sim::Simulation::PeriodicHandle ticker_;
    std::uint64_t deploys_ = 0;
    std::uint64_t downs_ = 0;
};

} // namespace tedge::core

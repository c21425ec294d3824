#include "core/predictor.hpp"

#include <algorithm>

namespace tedge::core {

PredictiveDeployer::PredictiveDeployer(sim::Simulation& sim,
                                       DeploymentEngine& engine,
                                       orchestrator::Cluster& target,
                                       const sdn::ServiceRegistry& registry,
                                       PredictorConfig config)
    : sim_(sim), engine_(engine), target_(target), registry_(registry),
      config_(config), log_(sim, "predictor") {
    ticker_ = sim_.schedule_periodic(config_.period, [this] { evaluate(); },
                                     /*daemon=*/true);
}

PredictiveDeployer::~PredictiveDeployer() {
    ticker_.cancel();
}

void PredictiveDeployer::observe(const net::ServiceAddress& address) {
    const auto* service = registry_.lookup(address);
    if (service == nullptr) return;
    auto& entry = entries_[service->spec.name];
    entry.service = service->spec.name;
    entry.pending += 1.0;
}

double PredictiveDeployer::score(const std::string& service_name) const {
    const auto it = entries_.find(service_name);
    return it == entries_.end() ? 0.0 : it->second.score;
}

std::vector<std::string> PredictiveDeployer::predeployed() const {
    std::vector<std::string> out;
    for (const auto& [name, entry] : entries_) {
        if (entry.predeployed) out.push_back(name);
    }
    return out;
}

void PredictiveDeployer::evaluate() {
    // EWMA update: score <- decay * score + arrivals-this-period.
    for (auto& [name, entry] : entries_) {
        entry.score = config_.decay * entry.score + entry.pending;
        entry.pending = 0.0;
    }

    // Rank by score.
    std::vector<Entry*> ranked;
    ranked.reserve(entries_.size());
    for (auto& [name, entry] : entries_) ranked.push_back(&entry);
    std::sort(ranked.begin(), ranked.end(), [](const Entry* a, const Entry* b) {
        if (a->score != b->score) return a->score > b->score;
        return a->service < b->service;  // deterministic tie-break
    });

    // Pre-deploy the hot top-K; scale down decayed entries.
    for (std::size_t rank = 0; rank < ranked.size(); ++rank) {
        Entry& entry = *ranked[rank];
        const bool should_run =
            rank < config_.top_k && entry.score >= config_.min_score;
        if (should_run && !entry.predeployed) {
            const auto* service = registry_.find_by_name(entry.service);
            if (service == nullptr) continue;
            entry.predeployed = true;
            ++deploys_;
            log_.info([&] { return "pre-deploying " + entry.service; });
            engine_.ensure(target_, service->spec, {},
                           [this, name = entry.service](
                               bool ok, const orchestrator::InstanceInfo&) {
                if (!ok) {
                    log_.warn("pre-deploy failed for " + name);
                    entries_[name].predeployed = false;
                }
            });
        } else if (!should_run && entry.predeployed &&
                   entry.score < config_.min_score) {
            entry.predeployed = false;
            ++downs_;
            log_.info([&] { return "scaling down cold " + entry.service; });
            engine_.scale_down(target_, entry.service, [](bool) {});
        }
    }
}

} // namespace tedge::core

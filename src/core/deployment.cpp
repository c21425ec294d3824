#include "core/deployment.hpp"

#include "simcore/metrics_registry.hpp"
#include "simcore/tracer.hpp"

namespace tedge::core {

struct DeploymentEngine::Job {
    orchestrator::Cluster* cluster = nullptr;
    orchestrator::ServiceSpec spec;
    DeployOptions options;
    std::string key;
    DeploymentRecord record;
    sim::TraceContext trace;  ///< the `deploy` span all phase spans nest under
};

DeploymentEngine::DeploymentEngine(sim::Simulation& sim, PortProber& prober,
                                   sim::SimTime instance_poll)
    : sim_(sim), prober_(prober), instance_poll_(instance_poll) {}

void DeploymentEngine::ensure(orchestrator::Cluster& cluster,
                              const orchestrator::ServiceSpec& spec,
                              DeployOptions options, Callback done) {
    // Fast path: a ready instance already exists.
    for (const auto& instance : cluster.instances(spec.name)) {
        if (instance.ready) {
            sim_.schedule(sim::SimTime::zero(),
                          [done = std::move(done), instance] { done(true, instance); });
            return;
        }
    }

    const std::string key = cluster.name() + "|" + spec.name;
    auto [it, inserted] = inflight_.try_emplace(key);
    it->second.push_back(std::move(done));
    if (!inserted) return; // coalesce with the in-flight deployment

    auto job = std::make_shared<Job>();
    job->cluster = &cluster;
    job->spec = spec;
    job->options = options;
    job->key = key;
    job->record.service = spec.name;
    job->record.cluster = cluster.name();
    job->record.started = sim_.now();
    ++inflight_per_cluster_[&cluster];
    if (auto* tr = sim_.tracer()) {
        const sim::SpanId span = tr->begin("deploy");
        tr->arg(span, "service", spec.name);
        tr->arg(span, "cluster", cluster.name());
        job->trace = tr->context_of(span);
    }
    // Admission pre-flight: fail fast (typed) instead of paying Pull/Create
    // only to have Scale Up bounce off a full cluster, or worse, waiting out
    // the 120 s await-instance timeout on a pod that can never bind.
    if (const auto reason = cluster.admits(spec);
        reason != orchestrator::AdmissionReason::kAdmitted) {
        job->record.admission = reason;
        if (auto* m = sim_.metrics()) {
            m->counter("core.deploy.rejected").inc();
            m->counter(std::string("core.deploy.rejected.") +
                       orchestrator::to_string(reason))
                .inc();
        }
        sim_.schedule(sim::SimTime::zero(), [this, job] { finish(job, false, {}); });
        return;
    }
    run_pull(job);
}

void DeploymentEngine::run_pull(const std::shared_ptr<Job>& job) {
    if (job->options.assume_image_present || job->cluster->has_image(job->spec)) {
        run_create(job);
        return;
    }
    const sim::SimTime started = sim_.now();
    job->record.phases.pulled = true;
    sim::Tracer* tr = sim_.tracer();
    const sim::SpanId span = tr ? tr->begin("deploy.pull", job->trace) : 0;
    // The scope makes the cluster's scheduled pull work inherit this span.
    const sim::Tracer::Scope scope(tr, span);
    job->cluster->ensure_image(job->spec, [this, job, started, span](
                                              bool ok, const container::PullTiming&) {
        job->record.phases.pull = sim_.now() - started;
        if (auto* t = sim_.tracer()) t->end(span);
        if (auto* m = sim_.metrics()) {
            m->histogram("phase.pull_ms", 0, 60'000, 120)
                .add(job->record.phases.pull.ms());
        }
        if (!ok) {
            finish(job, false, {});
            return;
        }
        run_create(job);
    });
}

void DeploymentEngine::run_create(const std::shared_ptr<Job>& job) {
    if (job->cluster->has_service(job->spec.name)) {
        run_scale_up(job);
        return;
    }
    const sim::SimTime started = sim_.now();
    job->record.phases.created = true;
    sim::Tracer* tr = sim_.tracer();
    const sim::SpanId span = tr ? tr->begin("deploy.create", job->trace) : 0;
    const sim::Tracer::Scope scope(tr, span);
    job->cluster->create_service(job->spec, [this, job, started, span](bool ok) {
        job->record.phases.create = sim_.now() - started;
        if (auto* t = sim_.tracer()) t->end(span);
        if (auto* m = sim_.metrics()) {
            m->histogram("phase.create_ms", 0, 10'000, 100)
                .add(job->record.phases.create.ms());
        }
        if (!ok) {
            finish(job, false, {});
            return;
        }
        run_scale_up(job);
    });
}

void DeploymentEngine::run_scale_up(const std::shared_ptr<Job>& job) {
    // If an instance is already starting (e.g. another controller scaled it
    // up), skip the command and just wait for it.
    if (!job->cluster->instances(job->spec.name).empty()) {
        await_instance(job, sim_.now());
        return;
    }
    const sim::SimTime started = sim_.now();
    job->record.phases.scaled = true;
    sim::Tracer* tr = sim_.tracer();
    const sim::SpanId span = tr ? tr->begin("deploy.scale_up", job->trace) : 0;
    const sim::Tracer::Scope scope(tr, span);
    job->cluster->scale_up(job->spec.name, [this, job, started, span](bool ok) {
        job->record.phases.scale_up = sim_.now() - started;
        if (auto* t = sim_.tracer()) t->end(span);
        if (auto* m = sim_.metrics()) {
            m->histogram("phase.scale_up_ms", 0, 10'000, 100)
                .add(job->record.phases.scale_up.ms());
        }
        if (!ok) {
            finish(job, false, {});
            return;
        }
        await_instance(job, sim_.now());
    });
}

void DeploymentEngine::await_instance(const std::shared_ptr<Job>& job,
                                      sim::SimTime started) {
    // An instance may materialise asynchronously (Kubernetes: the pod only
    // exists after deployment -> replicaset -> pod -> binding). Poll the
    // cluster view until one appears.
    const auto instances = job->cluster->instances(job->spec.name);
    if (!instances.empty()) {
        const auto& instance = instances.front();
        if (!job->options.wait_ready) {
            finish(job, true, instance);
            return;
        }
        run_wait_ready(job, instance);
        return;
    }
    if (sim_.now() - started >= sim::seconds(120)) {
        finish(job, false, {});
        return;
    }
    sim_.schedule(instance_poll_, [this, job, started] {
        await_instance(job, started);
    });
}

void DeploymentEngine::run_wait_ready(const std::shared_ptr<Job>& job,
                                      const orchestrator::InstanceInfo& instance) {
    const sim::SimTime started = sim_.now();
    sim::Tracer* tr = sim_.tracer();
    const sim::SpanId span = tr ? tr->begin("deploy.wait_ready", job->trace) : 0;
    const sim::Tracer::Scope scope(tr, span);
    prober_.wait_ready(instance.node, instance.port,
                       [this, job, instance, started, span](bool ok, sim::SimTime) {
        job->record.phases.wait_ready = sim_.now() - started;
        if (auto* t = sim_.tracer()) {
            t->end(span);
            if (ok) t->instant("ready", job->trace);
        }
        if (auto* m = sim_.metrics()) {
            m->histogram("phase.wait_ready_ms", 0, 10'000, 100)
                .add(job->record.phases.wait_ready.ms());
        }
        orchestrator::InstanceInfo ready_instance = instance;
        ready_instance.ready = ok;
        finish(job, ok, ready_instance);
    });
}

void DeploymentEngine::finish(const std::shared_ptr<Job>& job, bool ok,
                              const orchestrator::InstanceInfo& instance) {
    job->record.finished = sim_.now();
    job->record.ok = ok;
    records_.push_back(job->record);
    if (auto* tr = sim_.tracer()) {
        tr->arg(job->trace.span, "ok", ok ? "true" : "false");
        tr->end(job->trace.span);
    }
    if (auto* m = sim_.metrics()) {
        m->counter(ok ? "core.deploy.ok" : "core.deploy.failed").inc();
        m->histogram("phase.deploy_total_ms", 0, 60'000, 120)
            .add(job->record.total().ms());
    }

    const auto cluster_it = inflight_per_cluster_.find(job->cluster);
    if (cluster_it != inflight_per_cluster_.end() && cluster_it->second > 0) {
        if (--cluster_it->second == 0) inflight_per_cluster_.erase(cluster_it);
    }

    const auto it = inflight_.find(job->key);
    if (it == inflight_.end()) return;
    auto callbacks = std::move(it->second);
    inflight_.erase(it);
    for (auto& cb : callbacks) cb(ok, instance);
}

void DeploymentEngine::scale_down(orchestrator::Cluster& cluster,
                                  const std::string& service,
                                  orchestrator::Cluster::BoolCallback done) {
    cluster.scale_down(service, std::move(done));
}

void DeploymentEngine::remove(orchestrator::Cluster& cluster,
                              const std::string& service,
                              orchestrator::Cluster::BoolCallback done) {
    cluster.remove_service(service, std::move(done));
}

} // namespace tedge::core

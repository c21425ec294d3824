#include "sdn/dispatcher.hpp"

#include <functional>

#include "simcore/metrics_registry.hpp"
#include "simcore/tracer.hpp"

namespace tedge::sdn {

Dispatcher::Dispatcher(sim::Simulation& sim, net::Topology& topo,
                       net::OvsSwitch& ingress, ServiceRegistry& registry,
                       FlowMemory& memory, core::DeploymentEngine& engine,
                       GlobalScheduler& scheduler, SessionPlane& sessions,
                       std::vector<orchestrator::Cluster*> clusters,
                       DispatcherConfig config)
    : sim_(sim), topo_(topo), ingress_(ingress), registry_(registry),
      memory_(memory), engine_(engine), scheduler_(scheduler),
      sessions_(sessions), clusters_(std::move(clusters)), config_(config),
      log_(sim, "dispatcher"),
      continuity_(make_continuity_policy(config_.continuity)) {
    switches_.push_back(&ingress_);
}

void Dispatcher::set_continuity_policy(std::unique_ptr<ContinuityPolicy> policy) {
    if (policy) continuity_ = std::move(policy);
}

void Dispatcher::add_switch(net::OvsSwitch& ingress) {
    for (auto* existing : switches_) {
        if (existing == &ingress) return;
    }
    switches_.push_back(&ingress);
}

std::uint64_t Dispatcher::cookie_for(const std::string& service) {
    // Non-zero cookie so flow eviction by service works; 0 marks cloud flows.
    const auto h = std::hash<std::string>{}(service);
    return h == 0 ? 1 : h;
}

std::optional<net::NodeId> Dispatcher::client_location(net::Ipv4 client) const {
    return sessions_.location(client);
}

ScheduleContext Dispatcher::build_context(net::NodeId client,
                                          const orchestrator::ServiceSpec& spec,
                                          const std::string* exclude_cluster) const {
    ScheduleContext ctx;
    ctx.client = client;
    ctx.spec = &spec;
    ctx.topo = &topo_;
    for (auto* cluster : clusters_) {
        if (exclude_cluster != nullptr && cluster->name() == *exclude_cluster) {
            continue;
        }
        ScheduleContext::ClusterState state;
        state.cluster = cluster;
        state.instances = cluster->instances(spec.name);
        state.has_image = cluster->has_image(spec);
        state.has_service = cluster->has_service(spec.name);
        state.utilization = cluster->utilization();
        state.inflight_deploys = engine_.inflight_for(cluster->name());
        state.admission = cluster->admits(spec);
        ctx.states.push_back(std::move(state));
    }
    return ctx;
}

void Dispatcher::install_and_release(net::OvsSwitch& source,
                                     const net::PacketIn& event,
                                     const orchestrator::ServiceSpec& spec,
                                     const orchestrator::InstanceInfo& instance,
                                     const std::string& cluster_name) {
    if (auto* tr = sim_.tracer()) {
        const auto span = tr->begin("flow.install");
        tr->arg(span, "service", spec.name);
        tr->arg(span, "cluster", cluster_name);
        tr->end(span);
    }
    if (auto* m = sim_.metrics()) m->counter("sdn.flow_installs").inc();
    net::FlowEntry entry;
    entry.match.src_ip = event.packet.src_ip;
    entry.match.dst_ip = event.packet.dst_ip;
    entry.match.dst_port = event.packet.dst_port;
    entry.match.proto = event.packet.proto;
    entry.action.set_dst_ip = topo_.node(instance.node).ip;
    entry.action.set_dst_port = instance.port;
    entry.action.forward_to = instance.node;
    entry.priority = config_.flow_priority;
    entry.idle_timeout = config_.switch_idle_timeout;
    entry.cookie = cookie_for(spec.name);

    MemorizedFlow flow;
    flow.client_ip = event.packet.src_ip;
    flow.service_address = event.packet.dst();
    flow.service_name = spec.name;
    flow.instance_node = instance.node;
    flow.instance_port = instance.port;
    flow.cluster = cluster_name;
    memory_.memorize(flow);
    sessions_.note_served_by(event.packet.src_ip, cluster_name);

    // Lazy: FlowMatch::str() runs per packet-in only when debug is on.
    log_.debug([&] {
        return "install " + entry.match.str() + " -> " + cluster_name + " node " +
               std::to_string(instance.node.value) + ":" +
               std::to_string(instance.port);
    });
    source.flow_mod(net::FlowMod{entry});
    source.packet_out(net::PacketOut{event.buffer_id, /*use_table=*/true,
                                     /*drop=*/false});
}

void Dispatcher::release_to_cloud(net::OvsSwitch& source,
                                  const net::PacketIn& event, bool install_flow) {
    ++stats_.cloud_fallbacks;
    if (auto* tr = sim_.tracer()) tr->instant("cloud.fallback");
    if (auto* m = sim_.metrics()) m->counter("sdn.cloud_fallbacks").inc();
    log_.debug([&] { return "cloud fallback for " + event.packet.dst().str(); });
    if (install_flow && config_.install_cloud_flows) {
        net::FlowEntry entry;
        entry.match.src_ip = event.packet.src_ip;
        entry.match.dst_ip = event.packet.dst_ip;
        entry.match.dst_port = event.packet.dst_port;
        entry.match.proto = event.packet.proto;
        // No rewrite, no pinned node: forward toward the original (cloud)
        // destination.
        entry.priority = config_.flow_priority;
        entry.idle_timeout = config_.switch_idle_timeout;
        entry.cookie = 0;
        source.flow_mod(net::FlowMod{entry});
    }
    source.packet_out(net::PacketOut{event.buffer_id, /*use_table=*/false,
                                     /*drop=*/false});
}

void Dispatcher::handle_packet_in(const net::PacketIn& event) {
    handle_packet_in(ingress_, event);
}

void Dispatcher::handle_packet_in(net::OvsSwitch& source,
                                  const net::PacketIn& event) {
    sim::Tracer* tr = sim_.tracer();
    sim::SpanId pin_span = 0;
    if (tr != nullptr) {
        // A packet-in caused by an already-traced client request stays on
        // that request's track; a bare packet-in opens a fresh request.
        sim::TraceContext ctx = tr->current();
        if (ctx.request == 0) ctx.request = tr->new_request();
        pin_span = tr->begin("packet_in", ctx);
        tr->arg(pin_span, "dst", event.packet.dst().str());
    }
    // Everything the dispatch schedules (deployment, probes, flow mods)
    // nests under the packet-in span.
    const sim::Tracer::Scope scope(tr, pin_span);
    if (auto* m = sim_.metrics()) m->counter("sdn.packet_ins").inc();
    dispatch(source, event, pin_span);
    if (tr != nullptr) tr->end(pin_span);
}

void Dispatcher::dispatch(net::OvsSwitch& source, const net::PacketIn& event,
                          sim::SpanId pin_span) {
    ++stats_.packet_ins;
    // Location tracking: the session plane observes where the packet entered.
    // Explicitly attached sessions are authoritative and ignore stragglers
    // from the old cell; implicit ones keep the last-packet-wins behaviour.
    sessions_.observe_packet(event.packet.src_ip, source.node());

    const auto dst = event.packet.dst();

    // 1. FlowMemory: a previously-installed flow can be restored instantly
    //    -- provided the instance still accepts traffic.
    const auto remembered = memory_.recall(event.packet.src_ip, dst);
    if (auto* tr = sim_.tracer()) {
        const auto recall = tr->begin("flow_memory.recall");
        tr->arg(recall, "result", remembered ? "hit" : "miss");
        tr->end(recall);
    }
    if (auto* m = sim_.metrics()) {
        m->counter(remembered ? "sdn.flow_memory.hits" : "sdn.flow_memory.misses")
            .inc();
    }
    if (remembered) {
        if (topo_.port_open(remembered->instance_node, remembered->instance_port)) {
            ++stats_.memory_hits;
            const auto* svc = registry_.lookup(dst);
            if (svc != nullptr) {
                orchestrator::InstanceInfo instance;
                instance.service = remembered->service_name;
                instance.node = remembered->instance_node;
                instance.port = remembered->instance_port;
                instance.ready = true;
                install_and_release(source, event, svc->spec, instance,
                                    remembered->cluster);
                return;
            }
        }
        // Instance vanished or service unregistered: fall through.
        memory_.forget_service(remembered->service_name);
    }

    // 2. Only registered services are redirected.
    const auto* svc = registry_.lookup(dst);
    if (svc == nullptr) {
        ++stats_.unregistered;
        source.packet_out(net::PacketOut{event.buffer_id, /*use_table=*/false,
                                         /*drop=*/false});
        return;
    }
    const orchestrator::ServiceSpec& spec = svc->spec;

    // 3./4. Gather system state, ask the Global Scheduler.
    const auto ctx = build_context(event.packet.ingress, spec);
    sim::SpanId decide_span = 0;
    if (auto* tr = sim_.tracer()) decide_span = tr->begin("schedule.decide");
    const ScheduleResult result = scheduler_.decide(ctx);
    if (auto* tr = sim_.tracer()) {
        tr->arg(decide_span, "fast",
                result.fast && result.fast->cluster ? result.fast->cluster->name()
                                                    : "cloud");
        tr->arg(decide_span, "best",
                result.best && result.best->cluster ? result.best->cluster->name()
                                                    : "none");
        tr->end(decide_span);
    }

    // 5. BEST: deploy for future requests in the background (on-demand
    //    deployment WITHOUT waiting for this request).
    if (result.best && result.best->cluster != nullptr) {
        ++stats_.deployed_background;
        auto* best_cluster = result.best->cluster;
        core::DeployOptions options;
        options.wait_ready = true;
        engine_.ensure(*best_cluster, spec, options,
                       [this, spec](bool ok, const orchestrator::InstanceInfo&) {
            if (ok) on_best_ready(spec);
        });
    }

    // 6. FAST: where does the *current* request go?
    if (!result.fast || result.fast->cluster == nullptr) {
        release_to_cloud(source, event, /*install_flow=*/true);
        return;
    }
    auto* fast_cluster = result.fast->cluster;
    const std::string cluster_name = fast_cluster->name();

    if (result.fast->instance && result.fast->instance->ready) {
        ++stats_.redirected_ready;
        install_and_release(source, event, spec, *result.fast->instance,
                            cluster_name);
        return;
    }

    // With waiting: hold the buffered packet while the instance deploys.
    ++stats_.deployed_waiting;
    core::DeployOptions options;
    options.wait_ready = true;
    engine_.ensure(*fast_cluster, spec, options,
                   [this, &source, event, spec, cluster_name, pin_span](
                       bool ok, const orchestrator::InstanceInfo& instance) {
        // Re-anchor on the packet-in span: the callback executes deep in
        // the deployment chain, but the install belongs to the packet-in.
        const sim::Tracer::Scope scope(sim_.tracer(), pin_span);
        if (!ok) {
            ++stats_.failures;
            // One cluster failing (admission, pull error, timeout) must not
            // strand the client on the cloud while a sibling edge cluster
            // could serve: re-ask the scheduler without the failed cluster.
            retry_dispatch(source, event, spec, cluster_name, pin_span);
            return;
        }
        install_and_release(source, event, spec, instance, cluster_name);
    });
}

void Dispatcher::retry_dispatch(net::OvsSwitch& source, const net::PacketIn& event,
                                const orchestrator::ServiceSpec& spec,
                                const std::string& failed_cluster,
                                sim::SpanId pin_span) {
    const auto ctx = build_context(event.packet.ingress, spec, &failed_cluster);
    const ScheduleResult result = scheduler_.decide(ctx);
    if (!result.fast || result.fast->cluster == nullptr ||
        result.fast->cluster->name() == failed_cluster) {
        release_to_cloud(source, event, /*install_flow=*/false);
        return;
    }
    ++stats_.deploy_retries;
    if (auto* m = sim_.metrics()) m->counter("sdn.deploy_retries").inc();
    auto* alternate = result.fast->cluster;
    const std::string alternate_name = alternate->name();
    log_.debug([&] {
        return "retry " + spec.name + ": " + failed_cluster + " failed, trying " +
               alternate_name;
    });

    if (result.fast->instance && result.fast->instance->ready) {
        ++stats_.retry_successes;
        install_and_release(source, event, spec, *result.fast->instance,
                            alternate_name);
        return;
    }
    core::DeployOptions options;
    options.wait_ready = true;
    engine_.ensure(*alternate, spec, options,
                   [this, &source, event, spec, alternate_name, pin_span](
                       bool ok, const orchestrator::InstanceInfo& instance) {
        const sim::Tracer::Scope scope(sim_.tracer(), pin_span);
        if (!ok) {
            // Single retry only: two strikes and the cloud serves.
            ++stats_.failures;
            release_to_cloud(source, event, /*install_flow=*/false);
            return;
        }
        ++stats_.retry_successes;
        install_and_release(source, event, spec, instance, alternate_name);
    });
}

void Dispatcher::on_handover(const UeSession& session, net::NodeId old_ingress) {
    ++stats_.handovers;
    if (auto* m = sim_.metrics()) m->counter("sdn.handovers").inc();
    log_.debug([&] {
        return "handover client " + session.ip.str() + ": node " +
               std::to_string(old_ingress.value) + " -> " +
               std::to_string(session.ingress.value) + " (epoch " +
               std::to_string(session.epoch) + ")";
    });
    // Stale-flow sweep: the client's packets can no longer enter the old
    // cell, so its entries there are dead TCAM weight at best and stale
    // rewrites at worst (if the client bounces back before they idle out).
    for (auto* sw : switches_) {
        if (sw->node() == old_ingress) sw->remove_flows_by_src_ip(session.ip);
    }
    // Continuity: decide per memorized flow whether the old instance keeps
    // serving (re-steer) or an instance near the new cell is warmed.
    for (const MemorizedFlow& flow : memory_.flows_of_client(session.ip)) {
        decide_continuity(session, old_ingress, flow);
    }
}

void Dispatcher::decide_continuity(const UeSession& session,
                                   net::NodeId old_ingress,
                                   const MemorizedFlow& flow) {
    const auto* svc = registry_.lookup(flow.service_address);
    if (svc == nullptr) return;
    const orchestrator::ServiceSpec& spec = svc->spec;

    // Ask the scheduler where this flow would go if it arrived fresh at the
    // *new* cell. Proximity is judged from the cell, not the client node:
    // the client still carries radio links to previously-visited cells.
    const auto ctx = build_context(session.ingress, spec);
    const ScheduleResult result = scheduler_.decide(ctx);
    if (!result.fast || result.fast->cluster == nullptr) return;
    auto* target = result.fast->cluster;
    if (target->name() == flow.cluster) {
        // Best candidate is where the flow already lives: keep it.
        ++stats_.resteers;
        if (auto* m = sim_.metrics()) m->counter("sdn.resteers").inc();
        return;
    }

    ContinuityContext cctx;
    cctx.client = session.ingress;
    cctx.old_ingress = old_ingress;
    cctx.new_ingress = session.ingress;
    cctx.flow = &flow;
    if (const auto p = topo_.path(session.ingress, flow.instance_node)) {
        cctx.resteer_latency = p->latency;
    }
    const net::NodeId target_node = result.fast->instance
                                        ? result.fast->instance->node
                                        : target->location();
    if (const auto p = topo_.path(session.ingress, target_node)) {
        cctx.migrate_latency = p->latency;
    }
    cctx.target_warm = result.fast->instance && result.fast->instance->ready;
    if (!cctx.target_warm) {
        bool has_image = false;
        for (const auto& state : ctx.states) {
            if (state.cluster == target) {
                has_image = state.has_image;
                break;
            }
        }
        cctx.deployment_cost = has_image ? config_.continuity.warm_deploy_cost
                                         : config_.continuity.cold_deploy_cost;
    }

    if (continuity_->decide(cctx) == ContinuityAction::kResteer) {
        ++stats_.resteers;
        if (auto* m = sim_.metrics()) m->counter("sdn.resteers").inc();
        return;
    }

    // Migrate-and-warm: deploy near the new cell in the background; cut the
    // flow over only once the instance is ready. Until then the old instance
    // keeps serving -- the client never waits on the migration.
    ++stats_.migrations;
    if (auto* m = sim_.metrics()) m->counter("sdn.migrations").inc();
    const std::uint64_t epoch = session.epoch;
    const net::Ipv4 client = session.ip;
    const net::ServiceAddress addr = flow.service_address;
    core::DeployOptions options;
    options.wait_ready = true;
    engine_.ensure(*target, spec, options,
                   [this, epoch, client, addr](
                       bool ok, const orchestrator::InstanceInfo&) {
        if (!ok) {
            ++stats_.migration_failures;
            return;
        }
        const UeSession* current = sessions_.by_ip(client);
        if (current == nullptr || current->epoch != epoch) {
            // The client re-homed again (or detached) while the instance
            // warmed: this cut-over belongs to a dead attachment. Drop it;
            // the newer handover runs its own continuity pass.
            ++stats_.stale_migrations;
            return;
        }
        ++stats_.migrations_completed;
        if (auto* m = sim_.metrics()) m->counter("sdn.migrations_completed").inc();
        // Cut over: drop the memorized flow (notifying the old instance's
        // idle hook if this was its last user) and evict the installed
        // entries everywhere, so the next packet re-dispatches -- and the
        // scheduler now finds the warm instance near the new cell.
        memory_.forget_flow(client, addr, /*notify_if_idle=*/true);
        net::FlowMatch match;
        match.src_ip = client;
        match.dst_ip = addr.ip;
        match.dst_port = addr.port;
        match.proto = addr.proto;
        for (auto* sw : switches_) sw->remove_flows(match);
    });
}

void Dispatcher::on_best_ready(const orchestrator::ServiceSpec& spec) {
    // Invalidate existing flows so the next packets re-dispatch to the newly
    // deployed optimal instance (paper fig. 3: "as soon as the new instance
    // is running, requests are redirected to this optimal location").
    for (auto* ingress : switches_) {
        ingress->remove_flows_by_cookie(cookie_for(spec.name));
    }
    memory_.forget_service(spec.name);
}

void Dispatcher::on_endpoint_closed(net::NodeId node, std::uint16_t port) {
    for (auto* ingress : switches_) ingress->remove_flows_by_target(node, port);
}

} // namespace tedge::sdn

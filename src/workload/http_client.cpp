#include "workload/http_client.hpp"

#include <string>

namespace tedge::workload {

HttpClient::HttpClient(net::TcpNet& net, MetricsCollector& metrics)
    : net_(net), metrics_(metrics) {}

HttpClient::Handles& HttpClient::handles(sim::MetricsRegistry& registry) {
    if (handles_.registry != &registry) handles_ = Handles{.registry = &registry};
    return handles_;
}

void HttpClient::request(net::NodeId client_node, std::uint32_t client_index,
                         const net::ServiceAddress& address,
                         sim::Bytes request_size, RequestTag& tag) {
    sim::Simulation& sim = net_.simulation();
    const std::uint32_t slot = pending_.acquire();
    Pending& pending = pending_[slot];
    pending.record.service = tag.name;
    pending.tag = &tag;
    pending.record.client = client_index;
    pending.record.sent = sim.now();
    pending.span = 0;

    // Each client request opens a fresh trace request: everything the
    // packet-in triggers downstream (scheduling, deployment, flow install)
    // lands on this request's track.
    sim::Tracer* tr = sim.tracer();
    if (tr != nullptr) {
        const sim::RequestId req = tr->new_request();
        pending.span = tr->begin("request", sim::TraceContext{req, 0});
        tr->arg(pending.span, "service", tag.name.str());
        tr->arg(pending.span, "client", std::to_string(client_index));
    }
    const sim::Tracer::Scope scope(tr, pending.span);
    if (auto* m = sim.metrics()) {
        Handles& h = handles(*m);
        h.counter(h.requests, "workload.requests").inc();
    }

    net_.http_request(client_node, address, request_size,
                      [this, slot](const net::HttpResult& result) {
                          complete(slot, result);
                      });
}

void HttpClient::complete(std::uint32_t slot, const net::HttpResult& result) {
    sim::Simulation& sim = net_.simulation();
    Pending& pending = pending_[slot];
    if (auto* t = sim.tracer()) {
        if (pending.span != 0) {
            t->arg(pending.span, "ok", result.ok ? "true" : "false");
            t->end(pending.span);
        }
    }
    if (auto* m = sim.metrics()) {
        Handles& h = handles(*m);
        (result.ok ? h.counter(h.requests_ok, "workload.requests_ok")
                   : h.counter(h.requests_failed, "workload.requests_failed"))
            .inc();
        if (h.request_ms == nullptr) {
            h.request_ms = &m->histogram("workload.request_ms", 0, 10'000, 100);
        }
        h.request_ms->add(result.time_total.ms());
    }
    RequestRecord& record = pending.record;
    record.ok = result.ok;
    record.time_total = result.time_total;
    record.served_by = result.server_node;
    metrics_.add(record);
    if (result.ok) {
        RequestTag& tag = *pending.tag;
        if (tag.series == nullptr) tag.series = &metrics_.series(tag.name.str());
        tag.series->add_time(result.time_total);
    }
    pending_.release(slot);
}

} // namespace tedge::workload

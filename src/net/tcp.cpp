#include "net/tcp.hpp"

#include <stdexcept>

namespace tedge::net {

void EndpointDirectory::bind(NodeId node, std::uint16_t port, Handler handler) {
    handlers_[key(node, port)] = std::make_shared<const Handler>(std::move(handler));
}

void EndpointDirectory::unbind(NodeId node, std::uint16_t port) {
    handlers_.erase(key(node, port));
}

std::shared_ptr<const EndpointDirectory::Handler>
EndpointDirectory::find(NodeId node, std::uint16_t port) const {
    const auto it = handlers_.find(key(node, port));
    return it == handlers_.end() ? nullptr : it->second;
}

TcpNet::TcpNet(sim::Simulation& sim, Topology& topo, OvsSwitch& ingress,
               EndpointDirectory& endpoints, Config config)
    : sim_(sim), topo_(topo), ingress_(ingress), endpoints_(endpoints),
      config_(config), log_(sim, "tcp") {}

OvsSwitch& TcpNet::resolve_ingress(NodeId client) {
    if (resolver_ != nullptr) {
        if (OvsSwitch* attached = resolver_->current_ingress(client)) {
            return *attached;
        }
    }
    // Explicit fallback: a plain counter plus a (lazy) debug line, not a
    // metrics series -- the fig09/fig12 artifact byte-diffs must not change
    // for scenarios that never attach clients.
    ++unattached_fallbacks_;
    log_.debug([&] {
        return "client node " + std::to_string(client.value) +
               " unattached; falling back to primary ingress";
    });
    return ingress_;
}

std::optional<PathInfo> TcpNet::path_via_ingress(NodeId client, NodeId ingress_node,
                                                 NodeId dest) const {
    const auto radio = topo_.path(client, ingress_node);
    if (!radio) return std::nullopt;
    if (dest == ingress_node) return radio;
    const auto backhaul = topo_.path(ingress_node, dest);
    if (!backhaul) return std::nullopt;
    PathInfo combined;
    combined.latency = radio->latency + backhaul->latency;
    combined.bottleneck = std::min(radio->bottleneck, backhaul->bottleneck);
    combined.hops = radio->hops + backhaul->hops;
    return combined;
}

void TcpNet::http_request(NodeId client, ServiceAddress target,
                          sim::Bytes request_size, Done done) {
    ++requests_started_;
    const sim::SimTime started = sim_.now();
    OvsSwitch& ingress = resolve_ingress(client);

    Packet syn;
    syn.ingress = client;
    const auto& client_info = topo_.node(client);
    syn.src_ip = client_info.ip;
    syn.src_port = next_ephemeral_++;
    if (next_ephemeral_ == 0) next_ephemeral_ = 32768;
    syn.dst_ip = target.ip;
    syn.dst_port = target.port;
    syn.proto = target.proto;
    syn.size = config_.syn_size;
    syn.syn = true;

    // Deliver the SYN into the ingress switch after the client->switch leg.
    const auto to_switch = topo_.path(client, ingress.node());
    if (!to_switch) {
        HttpResult r;
        r.error = "client not connected to ingress switch";
        ++requests_failed_;
        done(r);
        return;
    }
    const sim::SimTime uplink = to_switch->delivery_time(syn.size);
    const std::uint32_t slot = exchanges_.acquire();
    Exchange& x = exchanges_[slot];
    x.client = client;
    x.ingress = &ingress;
    x.started = started;
    x.syn = syn;
    x.request_size = request_size;
    x.result = HttpResult{};
    x.done = std::move(done);
    sim_.schedule(uplink, [this, slot] {
        const Exchange& x = exchanges_[slot];
        x.ingress->submit(x.syn,
                          [this, slot](const Resolution& r) { on_resolved(slot, r); });
    });
}

void TcpNet::on_resolved(std::uint32_t slot, const Resolution& r) {
    Exchange& x = exchanges_[slot];
    x.result.served_by = r.effective_dst;
    if (r.dropped) {
        finish(slot, "packet dropped (no route to destination)");
        return;
    }
    x.result.server_node = r.dest_node;

    const auto path = path_via_ingress(x.client, x.ingress->node(), r.dest_node);
    if (!path) {
        finish(slot, "no path from client to server");
        return;
    }

    // The SYN already consumed roughly one forward latency getting here; the
    // remaining handshake is SYN-ACK back plus the client's ACK forward.
    // We charge: SYN-ACK (one-way) + ACK (one-way) = 1 RTT after resolution.
    const sim::SimTime handshake_rest = path->rtt();

    if (!topo_.port_open(r.dest_node, r.effective_dst.port, r.effective_dst.proto)) {
        // RST comes back after the server-side one-way latency.
        sim_.schedule(path->latency,
                      [this, slot] { finish(slot, "connection refused"); });
        return;
    }

    auto handler = endpoints_.find(r.dest_node, r.effective_dst.port);
    if (handler == nullptr) {
        // Port open but nothing accepting HTTP (half-started instance):
        // treat as an unresponsive server -- the request hangs and we model
        // a client-side error after the handshake.
        sim_.schedule(handshake_rest,
                      [this, slot] { finish(slot, "no endpoint handler bound"); });
        return;
    }

    x.path = *path;
    x.handler = std::move(handler); // survives an unbind while in flight
    const sim::SimTime request_leg = path->delivery_time(x.request_size);
    sim_.schedule(handshake_rest + request_leg, [this, slot] { serve(slot); });
}

void TcpNet::serve(std::uint32_t slot) {
    Exchange& x = exchanges_[slot];
    x.result.connect_time = sim_.now() - x.started;
    const auto handler = std::move(x.handler);
    const std::uint64_t token = (std::uint64_t{x.generation} << 32) | slot;
    (*handler)(x.request_size, EndpointDirectory::ReplyFn(*this, token));
}

void TcpNet::reply(std::uint64_t token, sim::Bytes response_size) {
    const auto slot = static_cast<std::uint32_t>(token);
    if (slot >= exchanges_.capacity() || exchanges_[slot].generation != token >> 32) {
        throw std::logic_error("endpoint replied to a request it already answered");
    }
    Exchange& x = exchanges_[slot];
    ++x.generation; // this request's handle is spent
    const sim::SimTime response_leg =
        x.path.delivery_time(response_size) + config_.per_request_overhead;
    sim_.schedule(response_leg, [this, slot] { finish(slot, {}); });
}

void TcpNet::finish(std::uint32_t slot, std::string_view error) {
    Exchange& x = exchanges_[slot];
    HttpResult result = x.result;
    result.ok = error.empty();
    result.error = error;
    result.time_total = sim_.now() - x.started;
    Done done = std::move(x.done);
    exchanges_.release(slot);
    if (!result.ok) ++requests_failed_;
    done(result);
}

void TcpNet::probe(NodeId from, NodeId host, std::uint16_t port, ProbeDone done) {
    const auto path = topo_.path(from, host);
    const std::uint32_t slot = probes_.acquire();
    probes_[slot].done = std::move(done);
    if (!path) {
        sim_.schedule(sim::SimTime::zero(), [this, slot] { answer_probe(slot, false); });
        return;
    }
    probes_[slot].host = host;
    probes_[slot].port = port;
    probes_[slot].latency = path->latency;
    // The answer (SYN-ACK or RST) reflects the port state at the moment the
    // SYN *arrives*, one one-way latency from now.
    sim_.schedule(path->latency, [this, slot] {
        const Probe& p = probes_[slot];
        const bool open = topo_.port_open(p.host, p.port, Proto::kTcp);
        sim_.schedule(p.latency, [this, slot, open] { answer_probe(slot, open); });
    });
}

void TcpNet::answer_probe(std::uint32_t slot, bool open) {
    ProbeDone done = std::move(probes_[slot].done);
    probes_.release(slot);
    done(open);
}

} // namespace tedge::net

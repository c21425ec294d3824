#include "net/tcp.hpp"

#include <stdexcept>

namespace tedge::net {

void EndpointDirectory::bind(NodeId node, std::uint16_t port, Handler handler) {
    handlers_[key(node, port)] = std::move(handler);
}

void EndpointDirectory::unbind(NodeId node, std::uint16_t port) {
    handlers_.erase(key(node, port));
}

const EndpointDirectory::Handler* EndpointDirectory::find(NodeId node,
                                                          std::uint16_t port) const {
    const auto it = handlers_.find(key(node, port));
    return it == handlers_.end() ? nullptr : &it->second;
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
                          sim::Bytes request_size,
                          std::function<void(const HttpResult&)> done) {
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
    sim_.schedule(uplink, [this, &ingress, client, started, syn, request_size,
                           done = std::move(done)] {
        ingress.submit(syn, [this, client, ingress_node = ingress.node(), started,
                             request_size, done](const Resolution& r) {
            run_exchange(client, ingress_node, started, r, request_size, done);
        });
    });
}

void TcpNet::run_exchange(NodeId client, NodeId ingress_node, sim::SimTime started,
                          const Resolution& r, sim::Bytes request_size,
                          const std::function<void(const HttpResult&)>& done) {
    HttpResult result;
    result.served_by = r.effective_dst;

    if (r.dropped) {
        result.error = "packet dropped (no route to destination)";
        ++requests_failed_;
        result.time_total = sim_.now() - started;
        done(result);
        return;
    }
    result.server_node = r.dest_node;

    const auto path = path_via_ingress(client, ingress_node, r.dest_node);
    if (!path) {
        result.error = "no path from client to server";
        ++requests_failed_;
        result.time_total = sim_.now() - started;
        done(result);
        return;
    }

    // The SYN already consumed roughly one forward latency getting here; the
    // remaining handshake is SYN-ACK back plus the client's ACK forward.
    // We charge: SYN-ACK (one-way) + ACK (one-way) = 1 RTT after resolution.
    const sim::SimTime handshake_rest = path->rtt();

    if (!topo_.port_open(r.dest_node, r.effective_dst.port, r.effective_dst.proto)) {
        // RST comes back after the server-side one-way latency.
        sim_.schedule(path->latency, [this, started, result, done]() mutable {
            result.error = "connection refused";
            ++requests_failed_;
            result.time_total = sim_.now() - started;
            done(result);
        });
        return;
    }

    const auto* handler = endpoints_.find(r.dest_node, r.effective_dst.port);
    if (handler == nullptr) {
        // Port open but nothing accepting HTTP (half-started instance):
        // treat as an unresponsive server -- the request hangs and we model
        // a client-side error after the handshake.
        sim_.schedule(handshake_rest, [this, started, result, done]() mutable {
            result.error = "no endpoint handler bound";
            ++requests_failed_;
            result.time_total = sim_.now() - started;
            done(result);
        });
        return;
    }

    const sim::SimTime request_leg = path->delivery_time(request_size);
    const sim::SimTime pre_server = handshake_rest + request_leg;
    auto handler_copy = *handler; // survive unbind while in flight
    sim_.schedule(pre_server, [this, started, result, path = *path, handler_copy,
                               request_size, done]() mutable {
        result.connect_time = sim_.now() - started;
        handler_copy(request_size, [this, started, result, path,
                                    done](sim::Bytes response_size) mutable {
            const sim::SimTime response_leg =
                path.delivery_time(response_size) + config_.per_request_overhead;
            sim_.schedule(response_leg, [this, started, result, done]() mutable {
                result.ok = true;
                result.time_total = sim_.now() - started;
                done(result);
            });
        });
    });
}

void TcpNet::probe(NodeId from, NodeId host, std::uint16_t port,
                   std::function<void(bool open)> done) {
    const auto path = topo_.path(from, host);
    if (!path) {
        sim_.schedule(sim::SimTime::zero(), [done = std::move(done)] { done(false); });
        return;
    }
    // The answer (SYN-ACK or RST) reflects the port state at the moment the
    // SYN *arrives*, one one-way latency from now.
    sim_.schedule(path->latency, [this, host, port, latency = path->latency,
                                  done = std::move(done)] {
        const bool open = topo_.port_open(host, port, Proto::kTcp);
        sim_.schedule(latency, [open, done] { done(open); });
    });
}

} // namespace tedge::net

#include "net/ovs_switch.hpp"

#include <stdexcept>

namespace tedge::net {

OvsSwitch::OvsSwitch(sim::Simulation& sim, Topology& topo, NodeId self, Config config)
    : sim_(sim), topo_(topo), self_(self), config_(config) {}

void OvsSwitch::set_controller(PacketInHandler handler) {
    controller_ = std::move(handler);
}

void OvsSwitch::resolve_with_entry(const Packet& packet, const FlowEntry& entry,
                                   const ResolveCallback& done) {
    Resolution r;
    Packet rewritten = packet;
    if (entry.action.set_dst_ip) rewritten.dst_ip = *entry.action.set_dst_ip;
    if (entry.action.set_dst_port) rewritten.dst_port = *entry.action.set_dst_port;
    r.effective_dst = rewritten.dst();
    if (entry.action.forward_to.valid()) {
        r.dest_node = entry.action.forward_to;
    } else {
        const auto node = topo_.find_by_ip(rewritten.dst_ip);
        if (!node) {
            r.dropped = true;
        } else {
            r.dest_node = *node;
        }
    }
    done(r);
}

void OvsSwitch::resolve_original(const Packet& packet, const ResolveCallback& done) {
    Resolution r;
    r.effective_dst = packet.dst();
    const auto node = topo_.find_by_ip(packet.dst_ip);
    if (!node) {
        r.dropped = true;
    } else {
        r.dest_node = *node;
    }
    done(r);
}

void OvsSwitch::submit(const Packet& packet, ResolveCallback done) {
    sim_.schedule(config_.pipeline_delay, [this, packet, done = std::move(done)] {
        const auto entry = table_.lookup(packet, sim_.now());
        if (entry) {
            resolve_with_entry(packet, *entry, done);
            return;
        }
        if (!controller_) {
            // No controller connected: behave like a learning switch and
            // forward toward the original destination.
            resolve_original(packet, done);
            return;
        }
        if (buffered_.size() >= config_.buffer_capacity) {
            Resolution r;
            r.dropped = true;
            done(r);
            return;
        }
        const std::uint64_t id = next_buffer_id_++;
        buffered_.emplace(id, Buffered{packet, std::move(done)});
        ++packet_ins_;
        sim_.schedule(config_.channel_latency,
                      [this, id, packet] { controller_(PacketIn{id, packet}); });
    });
}

void OvsSwitch::flow_mod(const FlowMod& mod) {
    sim_.schedule(config_.channel_latency,
                  [this, mod] { table_.install(mod.entry, sim_.now()); });
}

void OvsSwitch::packet_out(const PacketOut& out) {
    sim_.schedule(config_.channel_latency, [this, out] {
        const auto it = buffered_.find(out.buffer_id);
        if (it == buffered_.end()) return; // already handled or never existed
        Buffered b = std::move(it->second);
        buffered_.erase(it);
        if (out.drop) {
            Resolution r;
            r.dropped = true;
            b.done(r);
            return;
        }
        if (out.use_table) {
            const auto entry = table_.lookup(b.packet, sim_.now());
            if (entry) {
                resolve_with_entry(b.packet, *entry, b.done);
                return;
            }
            // Controller released the packet but no rule matched (e.g. the
            // rule already expired); fall back to the original destination.
        }
        resolve_original(b.packet, b.done);
    });
}

void OvsSwitch::remove_flows_by_cookie(std::uint64_t cookie) {
    sim_.schedule(config_.channel_latency,
                  [this, cookie] { table_.remove_by_cookie(cookie); });
}

void OvsSwitch::remove_flows(const FlowMatch& match) {
    sim_.schedule(config_.channel_latency,
                  [this, match] { table_.remove(match); });
}

void OvsSwitch::remove_flows_by_src_ip(Ipv4 src_ip) {
    sim_.schedule(config_.channel_latency,
                  [this, src_ip] { table_.remove_by_src_ip(src_ip); });
}

void OvsSwitch::remove_flows_by_target(NodeId node, std::uint16_t port) {
    sim_.schedule(config_.channel_latency,
                  [this, node, port] { table_.remove_by_target(node, port); });
}

} // namespace tedge::net

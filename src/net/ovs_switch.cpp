#include "net/ovs_switch.hpp"

#include <stdexcept>

namespace tedge::net {

namespace {

Resolution dropped() {
    Resolution r;
    r.dropped = true;
    return r;
}

} // namespace

void OvsSwitch::BufferIndex::insert(std::uint64_t id, std::uint32_t slot) {
    if ((used_ + 1) * 2 > cells_.size()) grow();
    const std::size_t mask = cells_.size() - 1;
    std::size_t i = id & mask;  // ids are sequential: they spread on their own
    while (cells_[i].id != 0) i = (i + 1) & mask;
    cells_[i] = Cell{id, slot};
    ++used_;
}

std::optional<std::uint32_t> OvsSwitch::BufferIndex::take(std::uint64_t id) {
    if (used_ == 0 || id == 0) return std::nullopt;
    const std::size_t mask = cells_.size() - 1;
    std::size_t hole = id & mask;
    while (cells_[hole].id != id) {
        if (cells_[hole].id == 0) return std::nullopt;
        hole = (hole + 1) & mask;
    }
    const std::uint32_t slot = cells_[hole].slot;
    --used_;
    // Backward shift: pull each later member of the probe run into the hole
    // unless that would move it in front of its home cell.
    for (std::size_t j = (hole + 1) & mask; cells_[j].id != 0; j = (j + 1) & mask) {
        const std::size_t home = cells_[j].id & mask;
        if (((j - home) & mask) >= ((j - hole) & mask)) {
            cells_[hole] = cells_[j];
            hole = j;
        }
    }
    cells_[hole].id = 0;
    return slot;
}

void OvsSwitch::BufferIndex::grow() {
    std::vector<Cell> old = std::move(cells_);
    cells_.assign(old.empty() ? 16 : old.size() * 2, Cell{});
    const std::size_t mask = cells_.size() - 1;
    for (const Cell& cell : old) {
        if (cell.id == 0) continue;
        std::size_t i = cell.id & mask;
        while (cells_[i].id != 0) i = (i + 1) & mask;
        cells_[i] = cell;
    }
}

OvsSwitch::OvsSwitch(sim::Simulation& sim, Topology& topo, NodeId self, Config config)
    : sim_(sim), topo_(topo), self_(self), config_(config) {}

void OvsSwitch::set_controller(PacketInHandler handler) {
    controller_ = std::move(handler);
}

Resolution OvsSwitch::resolve(Packet packet, const FlowAction& action) const {
    if (action.set_dst_ip) packet.dst_ip = *action.set_dst_ip;
    if (action.set_dst_port) packet.dst_port = *action.set_dst_port;
    Resolution r;
    r.effective_dst = packet.dst();
    if (action.forward_to.valid()) {
        r.dest_node = action.forward_to;
    } else if (const auto node = topo_.find_by_ip(packet.dst_ip)) {
        r.dest_node = *node;
    } else {
        r.dropped = true;
    }
    return r;
}

void OvsSwitch::complete(std::uint32_t slot, const Resolution& r) {
    ResolveCallback done = std::move(pipeline_[slot].done);
    pipeline_.release(slot);
    done(r);
}

void OvsSwitch::submit(const Packet& packet, ResolveCallback done) {
    const std::uint32_t slot = pipeline_.acquire();
    pipeline_[slot].packet = packet;
    pipeline_[slot].done = std::move(done);
    sim_.schedule(config_.pipeline_delay, [this, slot] { process(slot); });
}

void OvsSwitch::process(std::uint32_t slot) {
    const Packet& packet = pipeline_[slot].packet;
    if (const auto entry = table_.lookup(packet, sim_.now())) {
        complete(slot, resolve(packet, entry->action));
        return;
    }
    if (!controller_) {
        // No controller connected: behave like a learning switch and
        // forward toward the original destination.
        complete(slot, resolve(packet, {}));
        return;
    }
    if (buffered_.size() >= config_.buffer_capacity) {
        ++buffer_overflows_;
        complete(slot, dropped());
        return;
    }
    const std::uint64_t id = next_buffer_id_++;
    pipeline_[slot].buffer_id = id;
    buffered_.insert(id, slot);
    ++packet_ins_;
    sim_.schedule(config_.channel_latency, [this, slot] {
        const InPipeline& buffered = pipeline_[slot];
        controller_(PacketIn{buffered.buffer_id, buffered.packet});
    });
}

void OvsSwitch::flow_mod(const FlowMod& mod) {
    const std::uint32_t slot = flow_mods_.acquire();
    flow_mods_[slot] = mod.entry;
    sim_.schedule(config_.channel_latency, [this, slot] { install(slot); });
}

void OvsSwitch::install(std::uint32_t slot) {
    table_.install(flow_mods_[slot], sim_.now());
    flow_mods_.release(slot);
}

void OvsSwitch::packet_out(const PacketOut& out) {
    sim_.schedule(config_.channel_latency, [this, out] {
        const auto slot = buffered_.take(out.buffer_id);
        if (!slot) return; // already handled or never existed
        if (out.drop) {
            complete(*slot, dropped());
            return;
        }
        const Packet& packet = pipeline_[*slot].packet;
        if (out.use_table) {
            if (const auto entry = table_.lookup(packet, sim_.now())) {
                complete(*slot, resolve(packet, entry->action));
                return;
            }
            // Controller released the packet but no rule matched (e.g. the
            // rule already expired); fall back to the original destination.
        }
        complete(*slot, resolve(packet, {}));
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

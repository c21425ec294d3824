// The virtual OVS switch at the network ingress (gNB in the paper's fig. 2).
//
// Packets addressed to registered services are matched against the flow
// table. On a hit the destination is rewritten and the packet forwarded to
// the chosen edge host. On a miss the packet is buffered and a PacketIn is
// raised to the SDN controller over a latency-modelled control channel; the
// controller later answers with FlowMod/PacketOut. While a request is
// buffered the client simply perceives a slow connection establishment --
// exactly the paper's "on-demand deployment with waiting".
#pragma once

#include <cstdint>
#include <functional>
#include <unordered_map>

#include "net/flow_table.hpp"
#include "net/openflow.hpp"
#include "net/topology.hpp"
#include "simcore/simulation.hpp"

namespace tedge::net {

/// Where a packet ended up after the switch pipeline.
struct Resolution {
    bool dropped = false;
    NodeId dest_node;              ///< host the packet was forwarded to
    ServiceAddress effective_dst;  ///< destination after any rewrite
};

struct OvsSwitchConfig {
    sim::SimTime pipeline_delay = sim::microseconds(10);   ///< table lookup cost
    sim::SimTime channel_latency = sim::microseconds(200); ///< each direction
    std::size_t buffer_capacity = 1024;
};

class OvsSwitch {
public:
    using ResolveCallback = std::function<void(const Resolution&)>;
    using PacketInHandler = std::function<void(const PacketIn&)>;
    using Config = OvsSwitchConfig;

    OvsSwitch(sim::Simulation& sim, Topology& topo, NodeId self, Config config = {});

    /// Connect the controller. PacketIns arrive `channel_latency` after the
    /// miss occurs.
    void set_controller(PacketInHandler handler);

    /// A packet enters the switch. `done` fires once the packet has left the
    /// pipeline (immediately on a table hit; after the controller round trip
    /// and any on-demand deployment on a miss).
    void submit(const Packet& packet, ResolveCallback done);

    // ---- Controller-side API (each call crosses the control channel) ----

    /// Install a flow entry (arrives after channel latency).
    void flow_mod(const FlowMod& mod);

    /// Release or drop a buffered packet (arrives after channel latency).
    void packet_out(const PacketOut& out);

    /// Remove flows carrying this cookie (controller-initiated eviction).
    void remove_flows_by_cookie(std::uint64_t cookie);

    /// Remove flows matching exactly `match` (client-scoped eviction after
    /// a migration cut-over).
    void remove_flows(const FlowMatch& match);

    /// Remove every flow whose match pins this source IP: the stale-state
    /// sweep when a client re-homes away from this cell. Its packets can no
    /// longer enter here, so the entries would only idle out as dead TCAM
    /// weight -- or serve stale rewrites if the client ever bounced back.
    void remove_flows_by_src_ip(Ipv4 src_ip);

    /// Remove every flow whose action steers to `port` on `node`: the
    /// endpoint closed, so the rewrite would only get the client refused.
    void remove_flows_by_target(NodeId node, std::uint16_t port);

    [[nodiscard]] FlowTable& table() { return table_; }
    [[nodiscard]] const FlowTable& table() const { return table_; }
    [[nodiscard]] NodeId node() const { return self_; }
    [[nodiscard]] std::size_t buffered_packets() const { return buffered_.size(); }
    [[nodiscard]] std::uint64_t packet_in_count() const { return packet_ins_; }

private:
    struct Buffered {
        Packet packet;
        ResolveCallback done;
    };

    void resolve_with_entry(const Packet& packet, const FlowEntry& entry,
                            const ResolveCallback& done);
    void resolve_original(const Packet& packet, const ResolveCallback& done);

    sim::Simulation& sim_;
    Topology& topo_;
    NodeId self_;
    Config config_;
    FlowTable table_;
    PacketInHandler controller_;
    std::unordered_map<std::uint64_t, Buffered> buffered_;
    std::uint64_t next_buffer_id_ = 1;
    std::uint64_t packet_ins_ = 0;
};

} // namespace tedge::net

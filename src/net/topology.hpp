// Network topology: nodes (hosts/switches) joined by latency+bandwidth
// links, with shortest-path (lowest-latency) route computation. This models
// the C3 testbed's overlay network (paper fig. 8) as well as arbitrary
// hierarchies of edge clusters.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "net/address.hpp"
#include "net/packet.hpp"
#include "simcore/time.hpp"
#include "simcore/units.hpp"

namespace tedge::net {

enum class NodeKind { kHost, kSwitch };

struct NodeInfo {
    NodeId id;
    std::string name;
    NodeKind kind = NodeKind::kHost;
    Ipv4 ip;                   ///< unspecified for pure switches
    std::uint32_t cpu_cores = 4;
};

/// One-way properties of the best route between two nodes.
struct PathInfo {
    sim::SimTime latency;      ///< one-way propagation+forwarding latency
    sim::DataRate bottleneck;  ///< min link rate on the path
    int hops = 0;

    [[nodiscard]] sim::SimTime rtt() const { return latency * 2; }

    /// One-way delivery time of `size` bytes: latency + serialization at the
    /// bottleneck (store-and-forward effects folded into per-link latency).
    [[nodiscard]] sim::SimTime delivery_time(sim::Bytes size) const {
        return latency + bottleneck.transfer_time(size);
    }
};

class Topology {
public:
    /// Add a node; names must be unique; host IPs must be unique when set.
    NodeId add_host(const std::string& name, Ipv4 ip, std::uint32_t cpu_cores = 4);
    NodeId add_switch(const std::string& name);

    /// Add a bidirectional link. Throws if either node is unknown.
    void add_link(NodeId a, NodeId b, sim::SimTime latency, sim::DataRate rate);

    /// Bind an additional IP address to a host (the cloud node answers for
    /// every registered service address in our experiments).
    void add_ip_alias(NodeId host, Ipv4 ip);

    [[nodiscard]] const NodeInfo& node(NodeId id) const;
    [[nodiscard]] std::optional<NodeId> find_by_name(const std::string& name) const;
    [[nodiscard]] std::optional<NodeId> find_by_ip(Ipv4 ip) const;
    [[nodiscard]] std::size_t node_count() const { return nodes_.size(); }

    /// Visit every bidirectional link exactly once, as (a, b, latency, rate)
    /// with a.value < b.value, ordered by a then by insertion. The topology
    /// partitioner uses this to find cut links and derive the conservative
    /// lookahead.
    void for_each_link(
        const std::function<void(NodeId a, NodeId b, sim::SimTime latency,
                                 sim::DataRate rate)>& fn) const;

    /// Lowest-latency path between two nodes, or nullopt if disconnected.
    /// Results are memoized in a table indexed by (from, to), one row per
    /// source allocated at that source's first query, so a repeat query is
    /// two array reads. Adding nodes/links invalidates the table (it is
    /// versioned: mutations bump the topology version and the rows are
    /// dropped lazily on the next query, so building a large topology does
    /// not pay a clear per added link).
    [[nodiscard]] std::optional<PathInfo> path(NodeId from, NodeId to) const;

    /// Convenience: path latency, throwing if disconnected.
    [[nodiscard]] sim::SimTime latency(NodeId from, NodeId to) const;

    // --- Port bookkeeping (which node listens on which TCP/UDP port) -----
    // The container runtime opens/closes ports as service instances start
    // and stop; the TCP model and the controller's readiness prober consult
    // this table.

    void open_port(NodeId host, std::uint16_t port, Proto proto = Proto::kTcp);
    /// Close a port; when it was open, the port-closed callback runs.
    void close_port(NodeId host, std::uint16_t port, Proto proto = Proto::kTcp);
    [[nodiscard]] bool port_open(NodeId host, std::uint16_t port,
                                 Proto proto = Proto::kTcp) const;

    using PortClosedCallback =
        std::function<void(NodeId host, std::uint16_t port, Proto proto)>;
    /// The SDN controller's hook for evicting switch entries that steer to
    /// a closed endpoint. Pass nullptr to clear.
    void set_port_closed_callback(PortClosedCallback cb) {
        port_closed_cb_ = std::move(cb);
    }

private:
    struct Edge {
        std::uint32_t to;
        sim::SimTime latency;
        sim::DataRate rate;
    };

    NodeId add_node(const std::string& name, NodeKind kind, Ipv4 ip,
                    std::uint32_t cpu_cores);
    static std::uint64_t port_key(NodeId host, std::uint16_t port, Proto proto) {
        return (std::uint64_t{host.value} << 24) | (std::uint64_t{port} << 8) |
               static_cast<std::uint8_t>(proto);
    }

    std::vector<NodeInfo> nodes_;
    std::vector<std::vector<Edge>> adj_;
    std::unordered_map<std::string, NodeId> by_name_;
    std::unordered_map<Ipv4, NodeId> by_ip_;
    /// Open (node, port, proto) triples, packed by port_key().
    std::unordered_set<std::uint64_t> open_ports_;
    PortClosedCallback port_closed_cb_;

    /// One (from, to) cell of the path table.
    struct CachedPath {
        enum class State : std::uint8_t { kUnknown, kDisconnected, kFound };
        State state = State::kUnknown;
        PathInfo info;
    };

    /// Bumped by every routing-relevant mutation (add_host/add_switch/
    /// add_link). The table remembers which version it was filled at and
    /// empties itself when they diverge -- a lookup after a mutation can
    /// never return a route computed on the old graph.
    std::uint64_t topology_version_ = 0;
    mutable std::uint64_t cache_version_ = 0;
    /// path_rows_[from][to]; a row is empty until `from` is first queried.
    mutable std::vector<std::vector<CachedPath>> path_rows_;
};

} // namespace tedge::net

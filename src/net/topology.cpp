#include "net/topology.hpp"

#include <algorithm>
#include <limits>
#include <queue>
#include <stdexcept>

namespace tedge::net {

NodeId Topology::add_node(const std::string& name, NodeKind kind, Ipv4 ip,
                          std::uint32_t cpu_cores) {
    if (by_name_.contains(name)) {
        throw std::invalid_argument("duplicate node name: " + name);
    }
    if (!ip.is_unspecified() && by_ip_.contains(ip)) {
        throw std::invalid_argument("duplicate node IP: " + ip.str());
    }
    const NodeId id{static_cast<std::uint32_t>(nodes_.size())};
    nodes_.push_back(NodeInfo{id, name, kind, ip, cpu_cores});
    adj_.emplace_back();
    by_name_.emplace(name, id);
    if (!ip.is_unspecified()) by_ip_.emplace(ip, id);
    ++topology_version_;
    return id;
}

NodeId Topology::add_host(const std::string& name, Ipv4 ip, std::uint32_t cpu_cores) {
    if (ip.is_unspecified()) {
        throw std::invalid_argument("host requires an IP: " + name);
    }
    return add_node(name, NodeKind::kHost, ip, cpu_cores);
}

NodeId Topology::add_switch(const std::string& name) {
    return add_node(name, NodeKind::kSwitch, Ipv4{}, 0);
}

void Topology::add_link(NodeId a, NodeId b, sim::SimTime latency, sim::DataRate rate) {
    if (a.value >= nodes_.size() || b.value >= nodes_.size()) {
        throw std::invalid_argument("add_link: unknown node");
    }
    if (a == b) throw std::invalid_argument("add_link: self loop");
    adj_[a.value].push_back(Edge{b.value, latency, rate});
    adj_[b.value].push_back(Edge{a.value, latency, rate});
    ++topology_version_;
}

void Topology::add_ip_alias(NodeId host, Ipv4 ip) {
    if (host.value >= nodes_.size()) throw std::out_of_range("unknown node id");
    if (ip.is_unspecified()) throw std::invalid_argument("alias must be a real IP");
    const auto [it, inserted] = by_ip_.emplace(ip, host);
    if (!inserted && it->second != host) {
        throw std::invalid_argument("IP already bound to another node: " + ip.str());
    }
}

void Topology::for_each_link(
    const std::function<void(NodeId a, NodeId b, sim::SimTime latency,
                             sim::DataRate rate)>& fn) const {
    for (std::uint32_t a = 0; a < adj_.size(); ++a) {
        for (const auto& e : adj_[a]) {
            if (e.to <= a) continue; // each undirected link stored twice
            fn(NodeId{a}, NodeId{e.to}, e.latency, e.rate);
        }
    }
}

const NodeInfo& Topology::node(NodeId id) const {
    if (id.value >= nodes_.size()) throw std::out_of_range("unknown node id");
    return nodes_[id.value];
}

std::optional<NodeId> Topology::find_by_name(const std::string& name) const {
    const auto it = by_name_.find(name);
    return it == by_name_.end() ? std::nullopt : std::optional{it->second};
}

std::optional<NodeId> Topology::find_by_ip(Ipv4 ip) const {
    const auto it = by_ip_.find(ip);
    return it == by_ip_.end() ? std::nullopt : std::optional{it->second};
}

std::optional<PathInfo> Topology::path(NodeId from, NodeId to) const {
    if (from.value >= nodes_.size() || to.value >= nodes_.size()) {
        throw std::out_of_range("path: unknown node id");
    }
    if (cache_version_ != topology_version_) {
        path_cache_.clear(); // the graph changed since these were computed
        cache_version_ = topology_version_;
    }
    const std::uint64_t key = (std::uint64_t{from.value} << 32) | to.value;
    if (const auto it = path_cache_.find(key); it != path_cache_.end()) {
        return it->second;
    }

    // Dijkstra over one-way latency; tracks bottleneck bandwidth and hops
    // along the chosen shortest path.
    constexpr std::int64_t kInf = std::numeric_limits<std::int64_t>::max();
    std::vector<std::int64_t> dist(nodes_.size(), kInf);
    std::vector<std::int64_t> bottleneck(nodes_.size(), 0);
    std::vector<int> hops(nodes_.size(), 0);
    using QEntry = std::pair<std::int64_t, std::uint32_t>;
    std::priority_queue<QEntry, std::vector<QEntry>, std::greater<>> pq;

    dist[from.value] = 0;
    bottleneck[from.value] = std::numeric_limits<std::int64_t>::max();
    pq.emplace(0, from.value);

    while (!pq.empty()) {
        const auto [d, u] = pq.top();
        pq.pop();
        if (d != dist[u]) continue;
        if (u == to.value) break;
        for (const auto& e : adj_[u]) {
            const std::int64_t nd = d + e.latency.ns();
            if (nd < dist[e.to]) {
                dist[e.to] = nd;
                bottleneck[e.to] = std::min(bottleneck[u], e.rate.bps());
                hops[e.to] = hops[u] + 1;
                pq.emplace(nd, e.to);
            }
        }
    }

    std::optional<PathInfo> result;
    if (dist[to.value] != kInf) {
        result = PathInfo{sim::SimTime{dist[to.value]},
                          sim::DataRate{bottleneck[to.value]}, hops[to.value]};
    }
    path_cache_.emplace(key, result);
    return result;
}

sim::SimTime Topology::latency(NodeId from, NodeId to) const {
    const auto p = path(from, to);
    if (!p) throw std::runtime_error("no path between nodes");
    return p->latency;
}

void Topology::open_port(NodeId host, std::uint16_t port, Proto proto) {
    open_ports_[host].insert({port, proto});
}

void Topology::close_port(NodeId host, std::uint16_t port, Proto proto) {
    const auto it = open_ports_.find(host);
    if (it == open_ports_.end() || it->second.erase({port, proto}) == 0) return;
    if (port_closed_cb_) port_closed_cb_(host, port, proto);
}

bool Topology::port_open(NodeId host, std::uint16_t port, Proto proto) const {
    const auto it = open_ports_.find(host);
    return it != open_ports_.end() && it->second.contains({port, proto});
}

} // namespace tedge::net

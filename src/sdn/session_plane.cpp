#include "sdn/session_plane.hpp"

#include <algorithm>

namespace tedge::sdn {

UeSession* SessionPlane::find(net::Ipv4 ip) {
    const auto it = by_ip_.find(ip.value());
    return it == by_ip_.end() ? nullptr : &it->second;
}

void SessionPlane::bind(net::NodeId ue, UeSession* session) {
    if (!ue.valid()) return;
    if (ue.value >= by_node_.size()) by_node_.resize(ue.value + 1, nullptr);
    by_node_[ue.value] = session;
}

const UeSession& SessionPlane::attach(net::NodeId ue, net::Ipv4 ip,
                                      net::OvsSwitch& ingress) {
    UeSession* s = find(ip);
    if (s == nullptr) {
        UeSession session;
        session.ue = ue;
        session.ip = ip;
        session.ingress = ingress.node();
        session.ingress_switch = &ingress;
        session.epoch = 1;
        session.attached_at = sim_.now();
        session.explicit_attachment = true;
        ++stats_.attaches;
        auto [it, _] = by_ip_.emplace(ip.value(), std::move(session));
        bind(ue, &it->second);
        return it->second;
    }
    // An implicit session being claimed, or a re-attach. Bind the node
    // either way: implicit sessions have no node mapping yet.
    s->ue = ue;
    bind(ue, s);
    if (s->ingress == ingress.node()) {
        // Same cell: upgrade to explicit (first claim counts as an attach),
        // refresh the switch pointer; no epoch bump, no callbacks.
        if (!s->explicit_attachment) {
            s->explicit_attachment = true;
            ++stats_.attaches;
        }
        s->ingress_switch = &ingress;
        return *s;
    }
    const net::NodeId old_ingress = s->ingress;
    s->ingress = ingress.node();
    s->ingress_switch = &ingress;
    s->attached_at = sim_.now();
    s->explicit_attachment = true;
    ++s->epoch;
    ++s->handovers;
    ++stats_.handovers;
    for (const auto& cb : callbacks_) cb(*s, old_ingress);
    return *s;
}

bool SessionPlane::detach(net::Ipv4 ip) {
    const auto it = by_ip_.find(ip.value());
    if (it == by_ip_.end()) return false;
    // Unbind only the nodes bound to this session: its node may have moved
    // on to another session, and a node whose address was claimed by
    // another node still points here.
    std::replace(by_node_.begin(), by_node_.end(), &it->second,
                 static_cast<UeSession*>(nullptr));
    by_ip_.erase(it);
    ++stats_.detaches;
    return true;
}

void SessionPlane::observe_packet(net::Ipv4 ip, net::NodeId ingress_node) {
    UeSession* s = find(ip);
    if (s == nullptr) {
        UeSession session;
        session.ip = ip;
        session.ingress = ingress_node;
        session.epoch = 1;
        session.attached_at = sim_.now();
        ++stats_.implicit_sessions;
        by_ip_.emplace(ip.value(), std::move(session));
        return;
    }
    if (s->ingress == ingress_node) return;
    if (s->explicit_attachment) {
        // A straggler from the old cell (buffered before the handover).
        // The explicit attachment is authoritative; count, don't follow.
        ++stats_.out_of_cell_packets;
        return;
    }
    // Implicit sessions follow the packets (legacy last-packet-wins).
    s->ingress = ingress_node;
    s->ingress_switch = nullptr;
    s->attached_at = sim_.now();
    ++s->epoch;
}

void SessionPlane::note_served_by(net::Ipv4 ip, sim::InternedName cluster) {
    if (UeSession* s = find(ip)) s->serving_cluster = cluster;
}

const UeSession* SessionPlane::by_ip(net::Ipv4 ip) const {
    const auto it = by_ip_.find(ip.value());
    return it == by_ip_.end() ? nullptr : &it->second;
}

std::optional<net::NodeId> SessionPlane::location(net::Ipv4 ip) const {
    const UeSession* s = by_ip(ip);
    if (s == nullptr) return std::nullopt;
    return s->ingress;
}

net::OvsSwitch* SessionPlane::current_ingress(net::NodeId client) {
    const UeSession* s = by_node(client);
    return s == nullptr ? nullptr : s->ingress_switch;
}

} // namespace tedge::sdn

// SessionPlane: first-class UE sessions (DESIGN §11).
//
// Before this module, a client's location was implicit state smeared across
// three layers -- the transport's attachment map, the dispatcher's
// last-packet-wins location table, and the static per-edge client
// assignment of the sharded control plane. The session plane is the single
// source of truth: one UeSession per client records its current ingress
// attachment (the gNB/cell it enters the network through), the cluster
// currently serving it, and a monotonically increasing *session epoch* that
// is bumped on every re-home. Consumers never cache a location; they hold
// the session (or its epoch) and re-read.
//
// The epoch is the correctness anchor for asynchronous handover work: a
// migrate-and-warm decision captures the epoch it was made under, and its
// completion is dropped when the client has re-homed again in the meantime
// -- late completions cannot clobber a newer attachment's state.
//
// Everything here is plain deterministic state: no kernel events, no
// metrics series, no log lines on the hot path (observe_packet), so wiring
// the session plane into a scenario that never hands over changes no
// artifact byte.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "net/ovs_switch.hpp"
#include "net/tcp.hpp"
#include "simcore/simulation.hpp"
#include "simcore/symbol_table.hpp"

namespace tedge::sdn {

/// One client's session state. `ingress` is always valid; `ingress_switch`
/// is null for implicit sessions (clients only ever seen through their
/// packets, never explicitly attached).
struct UeSession {
    net::NodeId ue;                  ///< client node; invalid for implicit sessions
    net::Ipv4 ip;
    net::NodeId ingress;             ///< current attachment point (gNB node)
    net::OvsSwitch* ingress_switch = nullptr;
    /// Last cluster a flow was installed toward, as interned by the
    /// dispatcher's FlowMemory (str() reads it while that memory lives).
    sim::InternedName serving_cluster;
    std::uint64_t epoch = 0;         ///< bumped on every re-home
    sim::SimTime attached_at;        ///< when the current attachment began
    std::uint32_t handovers = 0;
    bool explicit_attachment = false;
};

struct SessionPlaneStats {
    std::uint64_t attaches = 0;           ///< sessions created explicitly
    std::uint64_t implicit_sessions = 0;  ///< sessions created from packets
    std::uint64_t handovers = 0;
    std::uint64_t detaches = 0;
    /// Packets observed entering through a switch other than the session's
    /// explicit attachment (in-flight stragglers buffered at the old cell).
    std::uint64_t out_of_cell_packets = 0;
};

class SessionPlane final : public net::IngressResolver {
public:
    /// Fired after a session re-homed: the session already points at the new
    /// ingress, `old_ingress` is the cell it left. First attaches and
    /// same-cell re-attaches do not fire.
    using HandoverCallback =
        std::function<void(const UeSession& session, net::NodeId old_ingress)>;

    explicit SessionPlane(sim::Simulation& sim) : sim_(sim) {}

    /// Create a session, or re-home an existing one (a radio handover: the
    /// epoch is bumped and handover callbacks fire). Re-attaching to the
    /// current cell is a no-op apart from upgrading an implicit session to
    /// an explicit one. Returns the (updated) session.
    const UeSession& attach(net::NodeId ue, net::Ipv4 ip, net::OvsSwitch& ingress);

    /// Remove a session entirely (UE powered off / left coverage). A node
    /// stays bound to any other session it holds: after attach(ue, A),
    /// attach(ue, B) and detach(A), `ue` is still found at B.
    bool detach(net::Ipv4 ip);

    void on_handover(HandoverCallback cb) { callbacks_.push_back(std::move(cb)); }

    /// Hot path (every packet-in): record where a client's packets enter.
    /// Unknown clients get an implicit session; implicit sessions follow the
    /// packets (the legacy last-packet-wins behaviour). Explicit attachments
    /// are authoritative: a straggler entering at another cell is counted,
    /// not believed.
    void observe_packet(net::Ipv4 ip, net::NodeId ingress_node);

    /// Record the cluster whose instance a flow was just installed toward.
    void note_served_by(net::Ipv4 ip, sim::InternedName cluster);

    [[nodiscard]] const UeSession* by_ip(net::Ipv4 ip) const;
    /// The session `ue` was last attached with; one array read.
    [[nodiscard]] const UeSession* by_node(net::NodeId ue) const {
        return ue.value < by_node_.size() ? by_node_[ue.value] : nullptr;
    }
    [[nodiscard]] std::optional<net::NodeId> location(net::Ipv4 ip) const;

    // net::IngressResolver: the transport asks per request.
    [[nodiscard]] net::OvsSwitch* current_ingress(net::NodeId client) override;

    [[nodiscard]] std::size_t size() const { return by_ip_.size(); }
    [[nodiscard]] const SessionPlaneStats& stats() const { return stats_; }

private:
    UeSession* find(net::Ipv4 ip);
    void bind(net::NodeId ue, UeSession* session);

    sim::Simulation& sim_;
    /// Keyed by ip value. Its nodes never move, so by_node_ may point at them.
    std::unordered_map<std::uint32_t, UeSession> by_ip_;
    /// Node value -> the session that node was last attached with; null
    /// for nodes never attached and after their session is detached.
    std::vector<UeSession*> by_node_;
    std::vector<HandoverCallback> callbacks_;
    SessionPlaneStats stats_;
};

} // namespace tedge::sdn

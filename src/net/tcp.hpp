// Analytic TCP/HTTP timing model.
//
// The control plane (first packet of a flow) runs through the OVS switch and
// may be delayed arbitrarily long by the SDN controller (on-demand
// deployment with waiting). Once the destination is resolved, connection
// establishment and data transfer are computed analytically from the path's
// RTT and bottleneck bandwidth -- the same quantity curl's time_total
// measures in the paper (from starting the TCP connection until the full
// HTTP response is received).
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string_view>
#include <type_traits>
#include <unordered_map>

#include "net/ovs_switch.hpp"
#include "net/topology.hpp"
#include "simcore/logging.hpp"
#include "simcore/simulation.hpp"
#include "simcore/slot_pool.hpp"
#include "simcore/unique_function.hpp"
#include "simcore/units.hpp"

namespace tedge::net {

/// Answers "which ingress switch does this client currently enter through?".
/// Implemented by the session plane (sdn::SessionPlane); defined here so the
/// transport layer depends only on the interface, not on the SDN layer.
/// Returning nullptr means "no attachment known" and the transport falls
/// back to its primary ingress.
class IngressResolver {
public:
    virtual ~IngressResolver() = default;
    [[nodiscard]] virtual OvsSwitch* current_ingress(NodeId client) = 0;
};

/// Receives endpoint replies. TcpNet is the production sink (one exchange
/// slot per in-flight request); tests that drive a handler directly supply
/// their own.
class ReplySink {
public:
    /// The endpoint answered the request `token` names with
    /// `response_size` bytes.
    virtual void reply(std::uint64_t token, sim::Bytes response_size) = 0;

protected:
    ~ReplySink() = default;
};

/// An application endpoint bound to (node, port). The handler receives the
/// request size and must invoke the reply handle exactly once (after any
/// simulated service time) with the response size.
class EndpointDirectory {
public:
    /// A reply handle: the sink and the token of one request, 16 bytes and
    /// trivially copyable, so a handler captures it into its service-time
    /// event without allocating.
    class ReplyFn {
    public:
        ReplyFn(ReplySink& sink, std::uint64_t token) : sink_(&sink), token_(token) {}
        void operator()(sim::Bytes response_size) const {
            sink_->reply(token_, response_size);
        }

    private:
        ReplySink* sink_;
        std::uint64_t token_;
    };
    using Handler = std::function<void(sim::Bytes request_size, ReplyFn reply)>;

    void bind(NodeId node, std::uint16_t port, Handler handler);
    void unbind(NodeId node, std::uint16_t port);
    /// The handler bound at (node, port), or null. Holding the pointer keeps
    /// the handler alive across an unbind: a request that reached the
    /// endpoint before the unbind is still served.
    [[nodiscard]] std::shared_ptr<const Handler> find(NodeId node,
                                                      std::uint16_t port) const;
    [[nodiscard]] std::size_t size() const { return handlers_.size(); }

private:
    static std::uint64_t key(NodeId node, std::uint16_t port) {
        return (std::uint64_t{node.value} << 16) | port;
    }
    std::unordered_map<std::uint64_t, std::shared_ptr<const Handler>> handlers_;
};

static_assert(sizeof(EndpointDirectory::ReplyFn) == 16 &&
              std::is_trivially_copyable_v<EndpointDirectory::ReplyFn>);

struct HttpResult {
    bool ok = false;
    std::string_view error;         ///< a static message; non-empty iff !ok
    sim::SimTime time_total;        ///< curl time_total equivalent
    sim::SimTime connect_time;      ///< until TCP handshake completed
    ServiceAddress served_by;       ///< destination after transparent rewrite
    NodeId server_node;
};

static_assert(std::is_trivially_copyable_v<HttpResult>);

/// Facade bundling the simulation, topology, ingress switch, and endpoint
/// directory into the transport API used by clients and the controller.
struct TcpNetConfig {
    sim::Bytes syn_size = 64;
    /// Fixed software overhead per HTTP exchange on top of network transfer
    /// times (kernel, curl, HTTP parsing).
    sim::SimTime per_request_overhead = sim::microseconds(150);
};

/// Each in-flight exchange lives in one slot of a pool. Every kernel event
/// and continuation of the request path captures only (this, slot), so a
/// warm request allocates nothing.
class TcpNet : private ReplySink {
public:
    using Config = TcpNetConfig;
    /// Completion of one exchange; fires exactly once per http_request.
    using Done = sim::UniqueFunction<void(const HttpResult&)>;
    /// Answer to one probe; fires exactly once per probe. Moved, never copied.
    using ProbeDone = sim::UniqueFunction<void(bool open)>;

    TcpNet(sim::Simulation& sim, Topology& topo, OvsSwitch& ingress,
           EndpointDirectory& endpoints, Config config = {});

    /// Wire the attachment source of truth (the session plane). Until set --
    /// or for clients the resolver does not know -- requests fall back to
    /// the primary ingress (counted, see unattached_fallbacks()).
    void set_attachment(IngressResolver* resolver) { resolver_ = resolver; }

    /// Requests that entered through the primary ingress only because the
    /// client had no attachment. Nonzero here with mobility configured means
    /// a session-plane wiring bug: packets entering at the wrong cell.
    [[nodiscard]] std::uint64_t unattached_fallbacks() const {
        return unattached_fallbacks_;
    }

    /// Perform a full HTTP exchange from `client` to `target` (a registered
    /// cloud service address). The first packet traverses the client's
    /// ingress switch; the redirect (if any) is transparent to the caller.
    void http_request(NodeId client, ServiceAddress target, sim::Bytes request_size,
                      Done done);

    /// TCP port probe from `from` directly to `host` (no switch involved):
    /// a SYN and its answer. `open` reports whether the port accepted.
    /// Completion takes one RTT between the nodes.
    void probe(NodeId from, NodeId host, std::uint16_t port, ProbeDone done);

    [[nodiscard]] sim::Simulation& simulation() { return sim_; }
    [[nodiscard]] Topology& topology() { return topo_; }
    [[nodiscard]] OvsSwitch& ingress() { return ingress_; }
    [[nodiscard]] EndpointDirectory& endpoints() { return endpoints_; }

    [[nodiscard]] std::uint64_t requests_started() const { return requests_started_; }
    [[nodiscard]] std::uint64_t requests_failed() const { return requests_failed_; }
    /// Exchange slots ever created: the peak number of concurrent exchanges.
    [[nodiscard]] std::size_t exchange_slots() const { return exchanges_.capacity(); }

private:
    struct Exchange {
        NodeId client;
        OvsSwitch* ingress = nullptr;
        sim::SimTime started;
        Packet syn;
        sim::Bytes request_size = 0;
        PathInfo path;                 ///< client -> server, once resolved
        HttpResult result;
        std::shared_ptr<const EndpointDirectory::Handler> handler; ///< until served
        Done done;
        std::uint32_t generation = 0;  ///< bumped by each reply: handles are single-use
    };

    /// A probe between its SYN and the answer; its events capture the slot.
    struct Probe {
        NodeId host;
        std::uint16_t port = 0;
        sim::SimTime latency;  ///< one way, from the prober to `host`
        ProbeDone done;
    };

    /// The ingress switch a client currently enters through; primary-ingress
    /// fallback (counted) when unattached.
    [[nodiscard]] OvsSwitch& resolve_ingress(NodeId client);
    /// The SYN left the ingress pipeline: fail, or schedule the server's
    /// side of the handshake.
    void on_resolved(std::uint32_t slot, const Resolution& r);
    /// The request reached the server: hand it to the endpoint.
    void serve(std::uint32_t slot);
    void reply(std::uint64_t token, sim::Bytes response_size) override;
    /// Complete the exchange (`error` empty on success), free its slot and
    /// fire its continuation.
    void finish(std::uint32_t slot, std::string_view error);
    /// The probe's answer reached the prober: free its slot and report.
    void answer_probe(std::uint32_t slot, bool open);
    /// Concatenated client -> ingress -> dest path: the data path always
    /// traverses the client's current cell. Equal to the direct shortest
    /// path in single-ingress topologies (every route crosses the gNB
    /// anyway); with several cells it pins the radio leg to the *current*
    /// attachment so links to previously-visited cells cannot short-cut.
    [[nodiscard]] std::optional<PathInfo>
    path_via_ingress(NodeId client, NodeId ingress_node, NodeId dest) const;

    sim::Simulation& sim_;
    Topology& topo_;
    OvsSwitch& ingress_;
    EndpointDirectory& endpoints_;
    Config config_;
    IngressResolver* resolver_ = nullptr;
    sim::Logger log_;
    std::uint64_t requests_started_ = 0;
    std::uint64_t requests_failed_ = 0;
    std::uint64_t unattached_fallbacks_ = 0;
    std::uint16_t next_ephemeral_ = 32768;
    sim::SlotPool<Exchange> exchanges_;
    sim::SlotPool<Probe> probes_;
};

} // namespace tedge::net

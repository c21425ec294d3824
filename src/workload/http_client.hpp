// timecurl-style HTTP client (paper [30]): issues requests through the
// transparent edge and records curl's time_total (from starting the TCP
// connection until the full response arrives). Feeds a MetricsCollector.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>

#include "net/tcp.hpp"
#include "simcore/metrics_registry.hpp"
#include "simcore/slot_pool.hpp"
#include "simcore/tracer.hpp"
#include "workload/metrics.hpp"

namespace tedge::workload {

/// What a request is recorded under: the record's service name, interned
/// once when the tag is made so each request copies an 8-byte handle, and
/// the collector series its successful completions feed. The series is
/// looked up at the tag's first successful completion and kept, so no
/// request hashes its tag and a tag whose requests all fail has no series.
/// A tag serves one collector and must outlive its requests and stay put
/// while they are in flight; clearing the collector invalidates its series.
struct RequestTag {
    RequestTag() = default;
    explicit RequestTag(std::string_view service) : name(service) {}

    ServiceName name;
    sim::SampleSet* series = nullptr;
};

class HttpClient {
public:
    HttpClient(net::TcpNet& net, MetricsCollector& metrics);

    /// GET/POST `request_size` bytes from `client` to the registered
    /// address; the record lands in the collector under `tag.name` and a
    /// success is also added to the collector's series(tag.name) in
    /// milliseconds.
    void request(net::NodeId client_node, std::uint32_t client_index,
                 const net::ServiceAddress& address, sim::Bytes request_size,
                 RequestTag& tag);

private:
    /// A request in flight: its record's request-side fields are filled at
    /// send time, the rest on completion.
    struct Pending {
        RequestRecord record;
        RequestTag* tag = nullptr;
        sim::SpanId span = 0;
    };

    /// The registry series this client writes, each bound on first use and
    /// kept while the same registry stays attached. Binding lazily keeps a
    /// series out of the dump until something is recorded in it, exactly
    /// as a by-name lookup at each site would.
    struct Handles {
        sim::MetricsRegistry* registry = nullptr;
        sim::MetricsRegistry::Counter* requests = nullptr;
        sim::MetricsRegistry::Counter* requests_ok = nullptr;
        sim::MetricsRegistry::Counter* requests_failed = nullptr;
        sim::Histogram* request_ms = nullptr;

        sim::MetricsRegistry::Counter& counter(sim::MetricsRegistry::Counter*& handle,
                                               std::string_view name) {
            if (handle == nullptr) handle = &registry->counter(name);
            return *handle;
        }
    };

    [[nodiscard]] Handles& handles(sim::MetricsRegistry& registry);
    void complete(std::uint32_t slot, const net::HttpResult& result);

    net::TcpNet& net_;
    MetricsCollector& metrics_;
    sim::SlotPool<Pending> pending_;
    Handles handles_;
};

} // namespace tedge::workload

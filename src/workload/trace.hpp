// Request traces: the (time, client, service) tuples replayed against the
// testbed. The paper drives its evaluation with TCP conversations extracted
// from the five-minute bigFlows.pcap capture (42 services receiving >= 20
// requests each, 1708 requests total); we regenerate traces with the same
// marginals (workload/bigflows.hpp) and can load/store CSV.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "simcore/time.hpp"

namespace tedge::workload {

struct TraceEvent {
    sim::SimTime at;
    std::uint32_t client = 0;   ///< client index (maps to an RPi node)
    std::uint32_t service = 0;  ///< service index (maps to a registered address)
    /// Flows this event carries. 1 for ordinary per-request events; > 1 for
    /// the batches FluidPoissonStream emits for bulk admission
    /// (workload/stream.hpp). CSV round-trips ignore it.
    std::uint64_t count = 1;
};

class Trace {
public:
    void add(TraceEvent event);

    /// Sort events by (time, client, service) -- call once after building.
    void finalize();

    [[nodiscard]] const std::vector<TraceEvent>& events() const { return events_; }
    [[nodiscard]] std::size_t size() const { return events_.size(); }
    [[nodiscard]] bool empty() const { return events_.empty(); }

    /// Largest service index + 1 (0 when empty).
    [[nodiscard]] std::uint32_t service_count() const;
    /// Largest client index + 1 (0 when empty).
    [[nodiscard]] std::uint32_t client_count() const;
    /// Timestamp of the last event.
    [[nodiscard]] sim::SimTime horizon() const;

    /// Requests per service index.
    [[nodiscard]] std::vector<std::size_t> requests_per_service() const;

    /// CSV round trip: "time_ms,client,service" lines with a header.
    [[nodiscard]] std::string to_csv() const;
    [[nodiscard]] static Trace from_csv(const std::string& text);

private:
    std::vector<TraceEvent> events_;
};

} // namespace tedge::workload

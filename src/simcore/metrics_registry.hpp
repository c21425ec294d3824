// Named metrics for benches and components: counters, gauges, and value
// histograms registered by name, with a flat deterministic text dump.
//
// Like the Tracer, a registry is attached to a Simulation as a nullable
// pointer: components guard metric sites with
// `if (auto* m = sim.metrics())`, which costs one pointer load when no
// registry is installed. Names are dotted paths ("sdn.packet_ins",
// "phase.deploy.pull_ms"); the dump lists entries in name order so two runs
// at the same seed produce byte-identical output.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <map>
#include <string>
#include <string_view>

#include "simcore/histogram.hpp"

namespace tedge::sim {

class MetricsRegistry {
public:
    class Counter {
    public:
        void inc(std::uint64_t delta = 1) { value_ += delta; }
        [[nodiscard]] std::uint64_t value() const { return value_; }

    private:
        std::uint64_t value_ = 0;
    };

    class Gauge {
    public:
        void set(double v) { value_ = v; }
        [[nodiscard]] double value() const { return value_; }

    private:
        double value_ = 0;
    };

    /// Get-or-create. References stay valid for the registry's lifetime.
    /// Lookups are heterogeneous: only a first registration builds a key
    /// string.
    Counter& counter(std::string_view name);
    Gauge& gauge(std::string_view name);
    /// Get-or-create; `lo`/`hi`/`bins` apply only on first registration.
    Histogram& histogram(std::string_view name, double lo, double hi,
                         std::size_t bins);

    [[nodiscard]] const Counter* find_counter(std::string_view name) const;
    [[nodiscard]] const Histogram* find_histogram(std::string_view name) const;

    [[nodiscard]] std::size_t size() const {
        return counters_.size() + gauges_.size() + histograms_.size();
    }

    /// Fold `other` into this registry: counters sum, histograms of matching
    /// shape merge bin-wise (shape mismatch throws), and gauges take the
    /// incoming value (last merge wins). Merging the per-domain registries of
    /// a sharded run in domain order yields a dump that is independent of
    /// shard grouping and thread count: summation is order-free and the
    /// gauge rule depends only on the (stable) domain order.
    void merge_from(const MetricsRegistry& other);

    /// Flat dump: one `name value` line per counter/gauge; histograms report
    /// count/underflow/overflow plus non-empty bins as `name[lo,hi) count`.
    void dump(std::ostream& os) const;
    [[nodiscard]] std::string dump() const;

private:
    std::map<std::string, Counter, std::less<>> counters_;
    std::map<std::string, Gauge, std::less<>> gauges_;
    std::map<std::string, Histogram, std::less<>> histograms_;
};

} // namespace tedge::sim

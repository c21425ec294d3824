#include "simcore/metrics_registry.hpp"

#include <algorithm>
#include <ostream>
#include <sstream>
#include <tuple>
#include <utility>
#include <vector>

namespace tedge::sim {

namespace {

/// Get-or-create `name` in `map`, building the key string only on insert.
template <typename Map, typename... Args>
typename Map::mapped_type& get_or_create(Map& map, std::string_view name,
                                         Args&&... args) {
    const auto it = map.lower_bound(name);
    if (it != map.end() && it->first == name) return it->second;
    return map
        .emplace_hint(it, std::piecewise_construct, std::forward_as_tuple(name),
                      std::forward_as_tuple(std::forward<Args>(args)...))
        ->second;
}

} // namespace

MetricsRegistry::Counter& MetricsRegistry::counter(std::string_view name) {
    return get_or_create(counters_, name);
}

MetricsRegistry::Gauge& MetricsRegistry::gauge(std::string_view name) {
    return get_or_create(gauges_, name);
}

Histogram& MetricsRegistry::histogram(std::string_view name, double lo, double hi,
                                      std::size_t bins) {
    return get_or_create(histograms_, name, lo, hi, bins);
}

const MetricsRegistry::Counter*
MetricsRegistry::find_counter(std::string_view name) const {
    const auto it = counters_.find(name);
    return it == counters_.end() ? nullptr : &it->second;
}

const Histogram* MetricsRegistry::find_histogram(std::string_view name) const {
    const auto it = histograms_.find(name);
    return it == histograms_.end() ? nullptr : &it->second;
}

void MetricsRegistry::merge_from(const MetricsRegistry& other) {
    for (const auto& [name, counter] : other.counters_) {
        counters_[name].inc(counter.value());
    }
    for (const auto& [name, gauge] : other.gauges_) {
        gauges_[name].set(gauge.value());
    }
    for (const auto& [name, histogram] : other.histograms_) {
        const auto it = histograms_.find(name);
        if (it == histograms_.end()) {
            histograms_.emplace(name, histogram);
        } else {
            it->second.merge(histogram);
        }
    }
}

void MetricsRegistry::dump(std::ostream& os) const {
    // One globally name-ordered listing across all metric kinds (counters,
    // gauges, histograms), so the dump diffs cleanly between runs.
    std::vector<std::pair<std::string, std::string>> lines;
    for (const auto& [name, counter] : counters_) {
        std::ostringstream line;
        line << name << ' ' << counter.value() << '\n';
        lines.emplace_back(name, line.str());
    }
    for (const auto& [name, gauge] : gauges_) {
        std::ostringstream line;
        line << name << ' ' << gauge.value() << '\n';
        lines.emplace_back(name, line.str());
    }
    for (const auto& [name, histogram] : histograms_) {
        std::ostringstream block;
        block << name << ".count " << histogram.total() << '\n';
        if (histogram.underflow() != 0) {
            block << name << ".underflow " << histogram.underflow() << '\n';
        }
        if (histogram.overflow() != 0) {
            block << name << ".overflow " << histogram.overflow() << '\n';
        }
        for (std::size_t i = 0; i < histogram.bins(); ++i) {
            if (histogram.bin_count(i) == 0) continue;
            block << name << '[' << histogram.bin_lo(i) << ','
                  << histogram.bin_hi(i) << ") " << histogram.bin_count(i) << '\n';
        }
        lines.emplace_back(name, block.str());
    }
    std::sort(lines.begin(), lines.end(),
              [](const auto& a, const auto& b) { return a.first < b.first; });
    for (const auto& [name, text] : lines) os << text;
}

std::string MetricsRegistry::dump() const {
    std::ostringstream os;
    dump(os);
    return os.str();
}

} // namespace tedge::sim

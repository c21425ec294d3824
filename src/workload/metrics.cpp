#include "workload/metrics.hpp"

#include <algorithm>
#include <iomanip>
#include <mutex>
#include <sstream>
#include <unordered_set>

namespace tedge::workload {

const std::string ServiceName::kEmpty;

const std::string* ServiceName::intern(std::string_view name) {
    if (name.empty()) return &kEmpty;
    // Nodes of an unordered_set never move, so the strings stay put while
    // the table grows.
    static std::mutex mutex;
    static std::unordered_set<std::string, sim::StringHash, std::equal_to<>> names;
    const std::lock_guard lock(mutex);
    const auto it = names.find(name);
    return it != names.end() ? &*it : &*names.emplace(name).first;
}

void MetricsCollector::add(const RequestRecord& record) {
    if (!record.ok) ++failures_;
    records_.push_back(record);
}

sim::SampleSet& MetricsCollector::series(std::string_view tag) {
    const auto it = series_.find(tag);
    if (it != series_.end()) return it->second;
    return series_.emplace(std::string(tag), sim::SampleSet{}).first->second;
}

const sim::SampleSet* MetricsCollector::find_series(std::string_view tag) const {
    const auto it = series_.find(tag);
    return it == series_.end() ? nullptr : &it->second;
}

std::vector<std::string> MetricsCollector::tags() const {
    std::vector<std::string> out;
    out.reserve(series_.size());
    for (const auto& [tag, set] : series_) out.push_back(tag);
    std::sort(out.begin(), out.end());
    return out;
}

void MetricsCollector::clear() {
    records_.clear();
    series_.clear();
    failures_ = 0;
}

TextTable::TextTable(std::vector<std::string> header) : header_(std::move(header)) {}

void TextTable::add_row(std::vector<std::string> cells) {
    cells.resize(header_.size());
    rows_.push_back(std::move(cells));
}

std::string TextTable::num(double value, int precision) {
    std::ostringstream os;
    os << std::fixed << std::setprecision(precision) << value;
    return os.str();
}

std::string TextTable::str() const {
    std::vector<std::size_t> widths(header_.size());
    for (std::size_t c = 0; c < header_.size(); ++c) widths[c] = header_[c].size();
    for (const auto& row : rows_) {
        for (std::size_t c = 0; c < row.size(); ++c) {
            widths[c] = std::max(widths[c], row[c].size());
        }
    }
    std::ostringstream os;
    auto emit_row = [&](const std::vector<std::string>& row) {
        for (std::size_t c = 0; c < row.size(); ++c) {
            if (c == 0) {
                os << std::left << std::setw(static_cast<int>(widths[c])) << row[c];
            } else {
                os << "  " << std::right << std::setw(static_cast<int>(widths[c]))
                   << row[c];
            }
        }
        os << "\n";
    };
    emit_row(header_);
    std::size_t total = 0;
    for (const auto w : widths) total += w + 2;
    os << std::string(total > 2 ? total - 2 : total, '-') << "\n";
    for (const auto& row : rows_) emit_row(row);
    return os.str();
}

} // namespace tedge::workload

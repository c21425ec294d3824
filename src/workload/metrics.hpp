// Measurement collection and table rendering for the bench harness.
//
// RequestRecord mirrors what the paper's timecurl.sh script captures per
// request (curl's time_total: from starting the TCP connection until the
// full HTTP response); MetricsCollector aggregates per-tag SampleSets; and
// TextTable renders the paper-vs-measured comparison tables the benches
// print.
#pragma once

#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "net/tcp.hpp"
#include "simcore/stats.hpp"
#include "simcore/symbol_table.hpp"

namespace tedge::workload {

/// A service name interned in one process-wide table: an 8-byte handle to
/// the table's copy of the spelling. Equal spellings share one handle, and
/// the table never drops a name, so a handle stays valid as long as the
/// process runs, whatever becomes of the record or collector that holds it.
/// Interning takes a lock (replicas run on a ThreadPool); reading a handle's
/// name does not, because an interned string never changes or moves.
class ServiceName {
public:
    /// The empty name.
    ServiceName() = default;
    explicit ServiceName(std::string_view name) : name_(intern(name)) {}
    ServiceName& operator=(std::string_view name) {
        name_ = intern(name);
        return *this;
    }

    [[nodiscard]] const std::string& str() const { return *name_; }
    /// Implicit, so a handle reads as the name it holds.
    operator const std::string&() const { return *name_; }

    friend bool operator==(ServiceName a, ServiceName b) { return a.name_ == b.name_; }
    friend bool operator==(ServiceName a, std::string_view b) { return *a.name_ == b; }

private:
    [[nodiscard]] static const std::string* intern(std::string_view name);

    static const std::string kEmpty;
    const std::string* name_ = &kEmpty;
};

struct RequestRecord {
    ServiceName service;     ///< service key or name
    sim::SimTime sent;
    sim::SimTime time_total; ///< curl time_total equivalent
    std::uint32_t client = 0;
    net::NodeId served_by;   ///< node that answered
    bool ok = false;
};

// The collector holds one record per replayed request, so the record's size
// sets most of a long replay's memory: an 8-byte name handle and this field
// order make it 40 bytes.
static_assert(sizeof(RequestRecord) == 40);

class MetricsCollector {
public:
    void add(const RequestRecord& record);
    /// Pre-size the record storage for `records` records in total.
    void reserve(std::size_t records) { records_.reserve(records); }

    [[nodiscard]] const std::vector<RequestRecord>& records() const { return records_; }
    [[nodiscard]] std::size_t count() const { return records_.size(); }
    [[nodiscard]] std::size_t failures() const { return failures_; }

    /// Per-tag sample series (milliseconds), keyed by caller-defined tags.
    /// Heterogeneous lookup: a string_view tag only allocates when the tag
    /// is seen for the first time.
    sim::SampleSet& series(std::string_view tag);
    [[nodiscard]] const sim::SampleSet* find_series(std::string_view tag) const;
    /// Tag list in sorted order (the storage is unordered; callers render
    /// tables from this, which must stay deterministic).
    [[nodiscard]] std::vector<std::string> tags() const;

    void clear();

private:
    std::vector<RequestRecord> records_;
    std::unordered_map<std::string, sim::SampleSet, sim::StringHash,
                       std::equal_to<>>
        series_;
    std::size_t failures_ = 0;
};

/// Fixed-width ASCII table (first column left-aligned, rest right-aligned).
class TextTable {
public:
    explicit TextTable(std::vector<std::string> header);

    void add_row(std::vector<std::string> cells);

    /// Convenience: format a double with the given precision.
    [[nodiscard]] static std::string num(double value, int precision = 1);

    [[nodiscard]] std::string str() const;

private:
    std::vector<std::string> header_;
    std::vector<std::vector<std::string>> rows_;
};

} // namespace tedge::workload

#include "net/flow_table.hpp"

#include <algorithm>

namespace tedge::net {

std::string FlowMatch::str() const {
    // Direct append, no ostringstream: this runs on log paths where the
    // stream's locale/alloc setup dominates the cost of the text itself.
    std::string out;
    out.reserve(64);
    out += "{src=";
    out += src_ip ? src_ip->str() : "*";
    out += " dst=";
    out += dst_ip ? dst_ip->str() : "*";
    out += ':';
    if (dst_port) {
        out += std::to_string(*dst_port);
    } else {
        out += '*';
    }
    out += " proto=";
    out += proto ? to_string(*proto) : "*";
    out += '}';
    return out;
}

std::optional<sim::SimTime> FlowTable::expiry_of(const FlowEntry& e) {
    std::optional<sim::SimTime> t;
    if (e.hard_timeout > sim::SimTime::zero()) t = e.installed_at + e.hard_timeout;
    if (e.idle_timeout > sim::SimTime::zero()) {
        const sim::SimTime idle_at = e.last_used + e.idle_timeout;
        if (!t || idle_at < *t) t = idle_at;
    }
    return t;
}

void FlowTable::note_expiry(const FlowEntry& e) {
    const auto t = expiry_of(e);
    if (t && (!next_expiry_ || *t < *next_expiry_)) next_expiry_ = t;
}

void FlowTable::reindex() {
    exact_.clear();
    wildcard_.clear();
    for (std::uint32_t i = 0; i < entries_.size(); ++i) {
        const FlowMatch& m = entries_[i].match;
        if (fully_specified(m)) {
            exact_[key_of(m)].push_back(i);
        } else {
            wildcard_.push_back(i);
        }
    }
}

void FlowTable::sweep_if_due(sim::SimTime now) {
    if (next_expiry_ && now >= *next_expiry_) expire(now);
}

bool FlowTable::install(FlowEntry entry, sim::SimTime now) {
    entry.installed_at = now;
    entry.last_used = now;
    entry.packet_count = 0;
    const auto it = std::find_if(entries_.begin(), entries_.end(), [&](const FlowEntry& e) {
        return e.match == entry.match && e.priority == entry.priority;
    });
    if (it != entries_.end()) {
        // Same match -> same index bucket; replace in place.
        note_expiry(entry);
        *it = std::move(entry);
        return true;
    }
    note_expiry(entry);
    const auto index = static_cast<std::uint32_t>(entries_.size());
    if (fully_specified(entry.match)) {
        exact_[key_of(entry.match)].push_back(index);
    } else {
        wildcard_.push_back(index);
    }
    entries_.push_back(std::move(entry));
    return false;
}

std::optional<FlowEntry> FlowTable::lookup(const Packet& packet, sim::SimTime now) {
    // After the sweep no entry is expired at `now` (next_expiry_ is a lower
    // bound), so the match loops below need no per-entry expiry checks.
    sweep_if_due(now);

    FlowEntry* best = nullptr;
    if (!exact_.empty()) {
        const auto it = exact_.find(key_of(packet));
        if (it != exact_.end()) {
            for (const std::uint32_t idx : it->second) {
                FlowEntry& e = entries_[idx];
                if (best == nullptr || e.priority > best->priority) best = &e;
            }
        }
    }
    // Wildcard entries can still outrank an exact hit on priority. On a
    // priority tie the exact entry wins: its specificity is 4, a wildcard's
    // is at most 3 -- identical to the old full-scan tiebreak.
    for (const std::uint32_t idx : wildcard_) {
        FlowEntry& e = entries_[idx];
        if (!e.match.matches(packet)) continue;
        if (best == nullptr || e.priority > best->priority ||
            (e.priority == best->priority &&
             e.match.specificity() > best->match.specificity())) {
            best = &e;
        }
    }

    if (best == nullptr) {
        ++misses_;
        return std::nullopt;
    }
    best->last_used = now; // extends idle expiry; bound stays conservative
    ++best->packet_count;
    ++hits_;
    return *best;
}

const FlowEntry* FlowTable::peek(const Packet& packet, sim::SimTime now) const {
    const FlowEntry* best = nullptr;
    for (const auto& e : entries_) {
        if (e.expired(now) || !e.match.matches(packet)) continue;
        if (!best || e.priority > best->priority ||
            (e.priority == best->priority &&
             e.match.specificity() > best->match.specificity())) {
            best = &e;
        }
    }
    return best;
}

template <typename Pred>
std::size_t FlowTable::remove_where(Pred pred) {
    const std::size_t removed = std::erase_if(entries_, pred);
    if (removed > 0) reindex();
    return removed;
}

std::size_t FlowTable::remove(const FlowMatch& match) {
    return remove_where([&](const FlowEntry& e) { return e.match == match; });
}

std::size_t FlowTable::remove_by_cookie(std::uint64_t cookie) {
    return remove_where([&](const FlowEntry& e) { return e.cookie == cookie; });
}

std::size_t FlowTable::remove_by_src_ip(Ipv4 src_ip) {
    return remove_where([&](const FlowEntry& e) {
        return e.match.src_ip && *e.match.src_ip == src_ip;
    });
}

std::size_t FlowTable::remove_by_target(NodeId node, std::uint16_t port) {
    return remove_where([&](const FlowEntry& e) {
        return e.action.forward_to == node && e.action.set_dst_port == port;
    });
}

std::size_t FlowTable::expire(sim::SimTime now) {
    std::size_t removed = 0;
    for (auto it = entries_.begin(); it != entries_.end();) {
        if (it->expired(now)) {
            if (removed_cb_) {
                const bool idle = !(it->hard_timeout > sim::SimTime::zero() &&
                                    now - it->installed_at >= it->hard_timeout);
                removed_cb_(*it, idle);
            }
            it = entries_.erase(it);
            ++removed;
        } else {
            ++it;
        }
    }
    // Recompute the exact bound (touches may have left it stale-low).
    next_expiry_.reset();
    for (const auto& e : entries_) note_expiry(e);
    if (removed > 0) reindex();
    return removed;
}

void FlowTable::clear() {
    entries_.clear();
    exact_.clear();
    wildcard_.clear();
    next_expiry_.reset();
}

} // namespace tedge::net

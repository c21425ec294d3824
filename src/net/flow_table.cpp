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

namespace {

/// std::*_heap comparator for a min-heap on (due, seq).
constexpr auto kLater = [](const auto& a, const auto& b) {
    return a.due != b.due ? a.due > b.due : a.seq > b.seq;
};

/// True if entry `a` (installed as `a_seq`) wins a packet both match over
/// `b`: higher priority, then more specific, then installed earlier.
bool outranks(const FlowEntry& a, std::uint64_t a_seq, const FlowEntry& b,
              std::uint64_t b_seq) {
    if (a.priority != b.priority) return a.priority > b.priority;
    const int sa = a.match.specificity();
    const int sb = b.match.specificity();
    if (sa != sb) return sa > sb;
    return a_seq < b_seq;
}

} // namespace

// ------------------------------------------------------------- exact index

std::size_t FlowTable::ExactIndex::hash(const ExactKey& k) {
    // splitmix64 finalizer over the packed fields.
    std::uint64_t x = (std::uint64_t{k.src} << 32) | k.dst;
    x ^= (std::uint64_t{k.dst_port} << 8) | k.proto;
    x += 0x9e3779b97f4a7c15ull;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
    return static_cast<std::size_t>(x ^ (x >> 31));
}

std::uint32_t* FlowTable::ExactIndex::find(const ExactKey& key) {
    if (used_ == 0) return nullptr;
    const std::size_t mask = cells_.size() - 1;
    for (std::size_t i = hash(key) & mask;; i = (i + 1) & mask) {
        Cell& cell = cells_[i];
        if (cell.slot == kNone) return nullptr;
        if (cell.key == key) return &cell.slot;
    }
}

std::uint32_t& FlowTable::ExactIndex::find_or_insert(const ExactKey& key) {
    if ((used_ + 1) * 2 > cells_.size()) grow();
    const std::size_t mask = cells_.size() - 1;
    for (std::size_t i = hash(key) & mask;; i = (i + 1) & mask) {
        Cell& cell = cells_[i];
        if (cell.slot == kNone) {
            cell.key = key;
            ++used_;
            return cell.slot;
        }
        if (cell.key == key) return cell.slot;
    }
}

void FlowTable::ExactIndex::erase(const ExactKey& key) {
    if (used_ == 0) return;
    const std::size_t mask = cells_.size() - 1;
    std::size_t hole = hash(key) & mask;
    while (cells_[hole].slot != kNone && !(cells_[hole].key == key)) {
        hole = (hole + 1) & mask;
    }
    if (cells_[hole].slot == kNone) return;
    --used_;
    // Backward shift: pull each later member of the probe run into the hole
    // unless that would move it in front of its home cell.
    for (std::size_t j = (hole + 1) & mask; cells_[j].slot != kNone; j = (j + 1) & mask) {
        const std::size_t home = hash(cells_[j].key) & mask;
        if (((j - home) & mask) >= ((j - hole) & mask)) {
            cells_[hole] = cells_[j];
            hole = j;
        }
    }
    cells_[hole].slot = kNone;
}

void FlowTable::ExactIndex::grow() {
    std::vector<Cell> old = std::move(cells_);
    cells_.assign(old.empty() ? 16 : old.size() * 2, Cell{});
    const std::size_t mask = cells_.size() - 1;
    for (const Cell& cell : old) {
        if (cell.slot == kNone) continue;
        std::size_t i = hash(cell.key) & mask;
        while (cells_[i].slot != kNone) i = (i + 1) & mask;
        cells_[i] = cell;
    }
}

// ------------------------------------------------------------------ table

std::optional<sim::SimTime> FlowTable::expiry_of(const FlowEntry& e) {
    std::optional<sim::SimTime> t;
    if (e.hard_timeout > sim::SimTime::zero()) t = e.installed_at + e.hard_timeout;
    if (e.idle_timeout > sim::SimTime::zero()) {
        const sim::SimTime idle_at = e.last_used + e.idle_timeout;
        if (!t || idle_at < *t) t = idle_at;
    }
    return t;
}

std::uint32_t FlowTable::find_same(const FlowMatch& match, std::uint16_t priority) {
    if (fully_specified(match)) {
        const std::uint32_t* head = exact_.find(key_of(match));
        for (std::uint32_t id = head ? *head : kNone; id != kNone; id = slots_[id].next) {
            if (slots_[id].entry.priority == priority) return id;
        }
        return kNone;
    }
    for (const std::uint32_t id : wildcard_) {
        const FlowEntry& e = slots_[id].entry;
        if (e.priority == priority && e.match == match) return id;
    }
    return kNone;
}

void FlowTable::file(std::uint32_t id) {
    const Slot& s = slots_[id];
    const auto due = expiry_of(s.entry);
    if (!due) return;
    deadlines_.push_back({*due, s.seq, id, s.generation});
    std::push_heap(deadlines_.begin(), deadlines_.end(), kLater);
}

void FlowTable::unchain(std::uint32_t id) {
    const ExactKey key = key_of(slots_[id].entry.match);
    std::uint32_t* link = exact_.find(key);
    if (*link == id && slots_[id].next == kNone) {
        exact_.erase(key); // last entry of its key: the cell must go, not read empty
        return;
    }
    while (*link != id) link = &slots_[*link].next;
    *link = slots_[id].next;
}

void FlowTable::release(std::uint32_t id) {
    Slot& s = slots_[id];
    s.live = false;
    ++s.generation;
    s.next = free_head_;
    free_head_ = id;
    --live_;
}

void FlowTable::unlink(std::uint32_t id) {
    if (fully_specified(slots_[id].entry.match)) {
        unchain(id);
    } else {
        wildcard_.erase(std::find(wildcard_.begin(), wildcard_.end(), id));
    }
    release(id);
}

void FlowTable::remove_expired(std::uint32_t id, sim::SimTime now) {
    // Unlink before the callback so it sees (and may change) a consistent table.
    const FlowEntry gone = slots_[id].entry;
    unlink(id);
    if (!removed_cb_) return;
    const bool idle = !(gone.hard_timeout > sim::SimTime::zero() &&
                        now - gone.installed_at >= gone.hard_timeout);
    removed_cb_(gone, idle);
}

bool FlowTable::install(FlowEntry entry, sim::SimTime now) {
    entry.installed_at = now;
    entry.last_used = now;
    entry.packet_count = 0;
    const std::uint32_t same = find_same(entry.match, entry.priority);
    if (same != kNone) {
        Slot& s = slots_[same];
        if (!s.entry.expired(now)) {
            // Replace in place: the entry keeps its slot and install order,
            // and the generation bump retires its old expiry record.
            s.entry = std::move(entry);
            ++s.generation;
            file(same);
            return true;
        }
        // Expired but not yet swept: it leaves as a sweep would have removed
        // it, and the new entry is a fresh install.
        remove_expired(same, now);
    }

    std::uint32_t id = free_head_;
    if (id != kNone) {
        free_head_ = slots_[id].next;
    } else {
        id = static_cast<std::uint32_t>(slots_.size());
        slots_.emplace_back();
    }
    Slot& s = slots_[id];
    s.entry = std::move(entry);
    s.seq = next_seq_++;
    s.live = true;
    s.next = kNone;
    ++live_;
    if (fully_specified(s.entry.match)) {
        // Chain by descending priority, so the head is the exact winner.
        std::uint32_t* link = &exact_.find_or_insert(key_of(s.entry.match));
        while (*link != kNone && slots_[*link].entry.priority > s.entry.priority) {
            link = &slots_[*link].next;
        }
        s.next = *link;
        *link = id;
    } else {
        wildcard_.push_back(id);
    }
    file(id);
    return false;
}

std::size_t FlowTable::sweep(sim::SimTime now) {
    std::size_t removed = 0;
    while (!deadlines_.empty() && deadlines_.front().due <= now) {
        std::pop_heap(deadlines_.begin(), deadlines_.end(), kLater);
        const Deadline d = deadlines_.back();
        deadlines_.pop_back();
        const Slot& s = slots_[d.slot];
        if (s.generation != d.generation) continue; // freed or replaced since filed
        const sim::SimTime due = *expiry_of(s.entry);
        if (due != d.due) {
            // Touched since filing. Re-filing (rather than removing once
            // `due <= now`) keeps removals in (expiry instant, seq) order.
            deadlines_.push_back({due, d.seq, d.slot, d.generation});
            std::push_heap(deadlines_.begin(), deadlines_.end(), kLater);
            continue;
        }
        remove_expired(d.slot, now);
        ++removed;
    }
    return removed;
}

std::optional<FlowEntry> FlowTable::lookup(const Packet& packet, sim::SimTime now) {
    // After the sweep no entry is expired at `now`, so the match below needs
    // no per-entry expiry checks.
    sweep(now);

    Slot* best = nullptr;
    if (std::uint32_t* head = exact_.find(key_of(packet))) best = &slots_[*head];
    // Wildcard entries can still outrank an exact hit on priority; on a
    // priority tie the exact entry's specificity (4) wins.
    for (const std::uint32_t id : wildcard_) {
        Slot& s = slots_[id];
        if (!s.entry.match.matches(packet)) continue;
        if (best == nullptr || outranks(s.entry, s.seq, best->entry, best->seq)) best = &s;
    }

    if (best == nullptr) {
        ++misses_;
        return std::nullopt;
    }
    best->entry.last_used = now; // later deadline; its record is re-filed lazily
    ++best->entry.packet_count;
    ++hits_;
    return best->entry;
}

const FlowEntry* FlowTable::peek(const Packet& packet, sim::SimTime now) const {
    const Slot* best = nullptr;
    for (const Slot& s : slots_) {
        if (!s.live || s.entry.expired(now) || !s.entry.match.matches(packet)) continue;
        if (best == nullptr || outranks(s.entry, s.seq, best->entry, best->seq)) best = &s;
    }
    return best ? &best->entry : nullptr;
}

template <typename Pred>
std::size_t FlowTable::remove_where(Pred pred) {
    std::size_t removed = std::erase_if(wildcard_, [&](std::uint32_t id) {
        if (!pred(slots_[id].entry)) return false;
        release(id);
        return true;
    });
    // Every live slot still satisfying `pred` is now an exact entry.
    for (std::uint32_t id = 0; id < slots_.size(); ++id) {
        if (!slots_[id].live || !pred(slots_[id].entry)) continue;
        unchain(id);
        release(id);
        ++removed;
    }
    return removed;
}

std::size_t FlowTable::remove(const FlowMatch& match) {
    if (!fully_specified(match)) {
        return remove_where([&](const FlowEntry& e) { return e.match == match; });
    }
    const ExactKey key = key_of(match);
    const std::uint32_t* head = exact_.find(key);
    if (head == nullptr) return 0;
    std::size_t removed = 0;
    for (std::uint32_t id = *head; id != kNone; ++removed) {
        const std::uint32_t next = slots_[id].next;
        release(id);
        id = next;
    }
    exact_.erase(key);
    return removed;
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

std::size_t FlowTable::expire(sim::SimTime now) { return sweep(now); }

std::vector<FlowEntry> FlowTable::entries() const {
    std::vector<const Slot*> order;
    order.reserve(live_);
    for (const Slot& s : slots_) {
        if (s.live) order.push_back(&s);
    }
    std::sort(order.begin(), order.end(),
              [](const Slot* a, const Slot* b) { return a->seq < b->seq; });
    std::vector<FlowEntry> out;
    out.reserve(order.size());
    for (const Slot* s : order) out.push_back(s->entry);
    return out;
}

void FlowTable::clear() {
    slots_.clear();
    free_head_ = kNone;
    live_ = 0;
    exact_ = {};
    wildcard_.clear();
    deadlines_.clear();
}

} // namespace tedge::net

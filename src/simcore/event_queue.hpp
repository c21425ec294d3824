// Slab-allocated event queue for the discrete-event kernel: a 4-ary min-heap
// of slot ids, O(log n) push and pop.
//
// Events are ordered by (timestamp, insertion sequence) which makes execution
// order fully deterministic: two events scheduled for the same instant run in
// the order they were scheduled.
//
// Storage is a slab of reusable slots referenced by the heap. An
// EventHandle is a (slot, generation) pair: cancellation is O(1) — a
// generation-checked flag write, no allocation, no shared_ptr traffic — and a
// handle held across slot reuse can never cancel the wrong event because the
// generation is bumped when the slot is recycled. Cancelled events stay in
// the heap as tombstones and are discarded lazily when they surface.
//
// Events may be marked `daemon` (housekeeping periodics such as cache
// sweeps): they execute normally while user events are pending, but
// Simulation::run() terminates once only daemon events remain.
//
// Lifetime: an EventHandle holds a raw pointer to its queue, so handles must
// not outlive the EventQueue (in practice the Simulation, which all
// components already outlive by construction order).
#pragma once

#include <cstdint>
#include <stdexcept>
#include <utility>
#include <vector>

#include "simcore/time.hpp"
#include "simcore/unique_function.hpp"

namespace tedge::sim {

class EventQueue;

/// Handle to a scheduled event; allows cancellation before it fires.
class EventHandle {
public:
    EventHandle() = default;

    /// Cancel the event. Safe to call multiple times, on an empty handle, or
    /// after the event has fired (the generation check makes it a no-op).
    void cancel();

    /// True if the handle refers to an event that has neither fired nor been
    /// cancelled yet.
    [[nodiscard]] bool pending() const;

private:
    friend class EventQueue;
    EventHandle(EventQueue* queue, std::uint32_t slot, std::uint32_t generation)
        : queue_(queue), slot_(slot), generation_(generation) {}

    EventQueue* queue_ = nullptr;
    std::uint32_t slot_ = 0;
    std::uint32_t generation_ = 0;
};

/// Deterministic timestamped callback queue over a reusable slot slab.
class EventQueue {
public:
    using Callback = UniqueFunction<void()>;

    EventQueue() {
        store_.heap.resize(kRoot); // physical pad before the heap root
    }

    /// Schedule `cb` to fire at absolute time `at`. Daemon events run like
    /// any other but do not keep Simulation::run() alive on their own.
    EventHandle push(SimTime at, Callback cb, bool daemon = false);

    /// True when no live events remain (cancelled tombstones do not count).
    [[nodiscard]] bool empty() const { return live_ == 0; }

    /// Number of live (scheduled, not cancelled) events.
    [[nodiscard]] std::size_t size() const { return live_; }

    /// True while at least one live non-daemon event remains.
    [[nodiscard]] bool has_user_events() const { return live_user_ > 0; }

    /// Timestamp of the earliest live event. Requires !empty(). May lazily
    /// discard cancelled tombstones (see the Store member note).
    [[nodiscard]] SimTime next_time() const;

    /// True when the earliest live event is a daemon. Requires !empty().
    /// Non-destructive (like next_time(), it only discards surfaced
    /// tombstones), so the caller may still push events earlier than the
    /// reported minimum — the sharded kernel peeks this to fence daemon
    /// housekeeping without disturbing later message insertion.
    [[nodiscard]] bool next_is_daemon() const;

    /// Remove and return the earliest live event. Requires !empty().
    std::pair<SimTime, Callback> pop();

    /// Pre-size the slot slab and the heap array for `events` concurrently
    /// pending events, avoiding vector-growth stalls mid-run.
    void reserve(std::size_t events);

    /// Total number of events ever scheduled (for diagnostics/determinism checks).
    [[nodiscard]] std::uint64_t total_scheduled() const { return seq_; }

private:
    friend class EventHandle;

    static constexpr std::uint32_t kInvalid = 0xFFFFFFFFu;

    struct Slot {
        Callback cb;
        std::uint64_t seq = 0;  ///< insertion sequence; ordering tie-break key
        std::uint32_t generation = 0;
        std::uint32_t next_free = kInvalid;
        bool daemon = false;
        bool cancelled = false;
        bool in_use = false;
    };
    // The timestamp lives in the heap entry itself so sift operations compare
    // contiguous 16-byte records; the insertion-sequence tie-break is fetched
    // from the slab only when two timestamps are equal. The heap is rooted at
    // physical index kRoot = 3 so every 4-child group starts at an index
    // divisible by 4 -- with 16-byte entries that is one 64-byte cache line
    // per sift level instead of two.
    struct HeapEntry {
        SimTime at;
        std::uint32_t slot;
    };
    static constexpr std::size_t kRoot = 3;
    static std::size_t heap_parent(std::size_t i) { return i / 4 + 2; }
    static std::size_t heap_child(std::size_t i) { return 4 * i - 8; }

    // Event storage. Const accessors (next_time, next_is_daemon) lazily
    // discard cancelled tombstones as they surface; that housekeeping
    // changes no observable state (live counts, next live event), so the
    // store is mutable and the accessors stay honest const — no const_cast.
    struct Store {
        std::vector<Slot> slots;
        std::vector<HeapEntry> heap;  ///< physical indices kRoot.. hold entries
        std::uint32_t free_head = kInvalid;
        std::size_t dead = 0;  ///< cancelled tombstones still in the heap
    };

    [[nodiscard]] bool entry_earlier(const HeapEntry& a, const HeapEntry& b) const {
        if (a.at != b.at) return a.at < b.at;
        return store_.slots[a.slot].seq < store_.slots[b.slot].seq;
    }
    [[nodiscard]] bool heap_empty() const { return store_.heap.size() <= kRoot; }

    void cancel_slot(std::uint32_t slot, std::uint32_t generation);
    [[nodiscard]] bool slot_pending(std::uint32_t slot, std::uint32_t generation) const;

    std::uint32_t acquire_slot();
    void release_slot(std::uint32_t slot) const;

    void sift_up(std::size_t i) const;
    void sift_down(std::size_t i) const;
    // Discard cancelled events that have surfaced at the heap top.
    void drop_dead() const;
    void pop_top() const;

    mutable Store store_;
    std::uint64_t seq_ = 0;
    std::size_t live_ = 0;
    std::size_t live_user_ = 0;
};

// ---------------------------------------------------------------------------
// Hot-path definitions, kept in the header so the simulation loop inlines
// them: push/pop run once per scheduled event, millions of times per
// experiment replay.

inline std::uint32_t EventQueue::acquire_slot() {
    if (store_.free_head != kInvalid) {
        const std::uint32_t slot = store_.free_head;
        store_.free_head = store_.slots[slot].next_free;
        return slot;
    }
    store_.slots.emplace_back();
    return static_cast<std::uint32_t>(store_.slots.size() - 1);
}

inline void EventQueue::release_slot(std::uint32_t slot) const {
    Slot& s = store_.slots[slot];
    s.cb = nullptr;
    s.in_use = false;
    s.cancelled = false;
    // Bump the generation so stale handles to the old occupant can neither
    // cancel nor observe the slot's next tenant.
    ++s.generation;
    s.next_free = store_.free_head;
    store_.free_head = slot;
}

inline void EventQueue::sift_up(std::size_t i) const {
    auto& heap = store_.heap;
    const HeapEntry moving = heap[i];
    while (i > kRoot) {
        const std::size_t parent = heap_parent(i);
        if (!entry_earlier(moving, heap[parent])) break;
        heap[i] = heap[parent];
        i = parent;
    }
    heap[i] = moving;
}

inline void EventQueue::sift_down(std::size_t i) const {
    auto& heap = store_.heap;
    const std::size_t n = heap.size();
    const HeapEntry moving = heap[i];
    for (;;) {
        const std::size_t first = heap_child(i);
        if (first >= n) break;
        std::size_t best = first;
        const std::size_t last = first + 4 < n ? first + 4 : n;
        for (std::size_t c = first + 1; c < last; ++c) {
            if (entry_earlier(heap[c], heap[best])) best = c;
        }
        if (!entry_earlier(heap[best], moving)) break;
        heap[i] = heap[best];
        i = best;
    }
    heap[i] = moving;
}

inline void EventQueue::pop_top() const {
    store_.heap[kRoot] = store_.heap.back();
    store_.heap.pop_back();
    if (!heap_empty()) sift_down(kRoot);
}

inline void EventQueue::drop_dead() const {
    if (store_.dead == 0) return; // common case: no tombstones, no slab probe
    while (!heap_empty() && store_.slots[store_.heap[kRoot].slot].cancelled) {
        release_slot(store_.heap[kRoot].slot);
        pop_top();
        --store_.dead;
    }
}

inline EventHandle EventQueue::push(SimTime at, Callback cb, bool daemon) {
    const std::uint32_t slot = acquire_slot();
    Slot& s = store_.slots[slot];
    s.cb = std::move(cb);
    s.seq = seq_++;
    s.daemon = daemon;
    s.cancelled = false;
    s.in_use = true;
    store_.heap.push_back(HeapEntry{at, slot});
    sift_up(store_.heap.size() - 1);
    ++live_;
    if (!daemon) ++live_user_;
    return EventHandle{this, slot, s.generation};
}

inline std::pair<SimTime, EventQueue::Callback> EventQueue::pop() {
    drop_dead();
    if (heap_empty()) throw std::logic_error("EventQueue::pop on empty queue");
    const std::uint32_t slot = store_.heap[kRoot].slot;
    Slot& s = store_.slots[slot];
    std::pair<SimTime, Callback> out{store_.heap[kRoot].at, std::move(s.cb)};
    --live_;
    if (!s.daemon) --live_user_;
    release_slot(slot); // handle now reports "not pending"
    pop_top();
    return out; // NRVO: no extra callback relocation
}

inline bool EventQueue::next_is_daemon() const {
    drop_dead();
    if (heap_empty()) {
        throw std::logic_error("EventQueue::next_is_daemon on empty queue");
    }
    return store_.slots[store_.heap[kRoot].slot].daemon;
}

inline SimTime EventQueue::next_time() const {
    drop_dead();
    if (heap_empty()) {
        throw std::logic_error("EventQueue::next_time on empty queue");
    }
    return store_.heap[kRoot].at;
}

} // namespace tedge::sim

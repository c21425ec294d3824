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
// generation is bumped when the event leaves the heap. Cancelled events stay
// in the heap as tombstones and are discarded lazily when they surface.
//
// An event costs one construction and one call: push() builds the callable
// directly in its slot, and run_next() calls it there. A running callback may
// schedule more events, so slots never move: the slab is a list of chunks,
// each allocated when its first slot is needed, and a slot is constructed
// when it is first handed out. The running event's slot stays off the free
// list until its callback has returned (or thrown) and been destroyed.
//
// Events may be marked `daemon` (housekeeping periodics such as cache
// sweeps): they execute normally while user events are pending, but
// Simulation::run() terminates once only daemon events remain.
//
// Lifetime: an EventHandle holds a raw pointer to its queue, so handles must
// not outlive the EventQueue (in practice the Simulation, which all
// components already outlive by construction order).
#pragma once

#include <array>
#include <bit>
#include <cstdint>
#include <type_traits>
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
    /// once the event has started running (the generation check makes it a
    /// no-op).
    void cancel();

    /// True if the handle refers to an event that has neither started
    /// running nor been cancelled yet.
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
    ~EventQueue();

    // Handles and running callbacks point into the slab.
    EventQueue(const EventQueue&) = delete;
    EventQueue& operator=(const EventQueue&) = delete;

    /// Schedule `fn` to fire at absolute time `at`. The callable is
    /// constructed directly in the event's slot; a Callback is moved in
    /// once. Daemon events run like any other but do not keep
    /// Simulation::run() alive on their own.
    template <typename F>
    EventHandle push(SimTime at, F&& fn, bool daemon = false);

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

    /// Run the earliest live event in its slot. Requires !empty(). `clock`
    /// is set to the event's timestamp before the callback runs. From then
    /// on the event's handle reports not pending and cancel() does nothing;
    /// the callback is destroyed and its slot freed once it returns or
    /// throws.
    void run_next(SimTime& clock);

    /// Remove and return the earliest live event without running it: the
    /// same take as run_next(), with the callback moved out before the slot
    /// is freed. Requires !empty(). For queue tests and microbenchmarks.
    std::pair<SimTime, Callback> pop();

    /// Pre-size the heap array for `events` concurrently pending events,
    /// avoiding vector-growth stalls mid-run. Slots are not touched: their
    /// chunks never move, so the slab has no growth stall to avoid.
    void reserve(std::size_t events);

    /// Total number of events ever scheduled (for diagnostics/determinism checks).
    [[nodiscard]] std::uint64_t total_scheduled() const { return seq_; }

private:
    friend class EventHandle;

    struct Slot {
        Callback cb;
        std::uint64_t seq = 0;  ///< insertion sequence; ordering tie-break key
        Slot* next_free = nullptr;
        std::uint32_t id = 0;   ///< what a handle names the slot by
        std::uint32_t generation = 0;
        bool daemon = false;
        bool cancelled = false;
    };
    // The timestamp lives in the heap entry itself so sift operations compare
    // contiguous 16-byte records; the insertion-sequence tie-break is fetched
    // from the slot only when two timestamps are equal. Since slots never
    // move, heap entries and the free list hold slot pointers, and only a
    // handle (cancel, pending) maps a slot id to its slot. The heap is
    // rooted at physical index kRoot = 3 so every 4-child group starts at an
    // index divisible by 4 -- with 16-byte entries that is one 64-byte cache
    // line per sift level instead of two.
    struct HeapEntry {
        SimTime at;
        Slot* slot;
    };
    static_assert(sizeof(HeapEntry) == 16);
    static constexpr std::size_t kRoot = 3;
    static std::size_t heap_parent(std::size_t i) { return i / 4 + 2; }
    static std::size_t heap_child(std::size_t i) { return 4 * i - 8; }

    // Chunk k holds kFirstChunk << k slots and starts at slot id
    // kFirstChunk * (2^k - 1), so an id finds its chunk with one bit_width.
    // 27 chunks cover every 32-bit slot id.
    static constexpr unsigned kFirstChunkLog2 = 6;
    static constexpr std::uint32_t kFirstChunk = 1u << kFirstChunkLog2;
    static constexpr unsigned kChunks = 32 - kFirstChunkLog2 + 1;
    static unsigned chunk_of(std::uint32_t id) {
        return static_cast<unsigned>(std::bit_width((id >> kFirstChunkLog2) + 1)) - 1;
    }
    static std::uint32_t chunk_start(unsigned chunk) {
        return ((1u << chunk) - 1) << kFirstChunkLog2;
    }
    static std::size_t chunk_size(unsigned chunk) {
        return std::size_t{kFirstChunk} << chunk;
    }

    // Event storage. Const accessors (next_time, next_is_daemon) lazily
    // discard cancelled tombstones as they surface; that housekeeping
    // changes no observable state (live counts, next live event), so the
    // store is mutable and the accessors stay honest const — no const_cast.
    struct Store {
        std::array<Slot*, kChunks> chunks{};  ///< allocated on first use
        std::uint32_t constructed = 0;        ///< slot ids [0, constructed) exist
        std::vector<HeapEntry> heap;  ///< physical indices kRoot.. hold entries
        Slot* free_head = nullptr;
        std::size_t dead = 0;  ///< cancelled tombstones still in the heap
    };

    [[nodiscard]] Slot& slot(std::uint32_t id) const {
        const unsigned chunk = chunk_of(id);
        return store_.chunks[chunk][id - chunk_start(chunk)];
    }

    [[nodiscard]] bool entry_earlier(const HeapEntry& a, const HeapEntry& b) const {
        if (a.at != b.at) return a.at < b.at;
        return a.slot->seq < b.slot->seq;
    }
    [[nodiscard]] bool heap_empty() const { return store_.heap.size() <= kRoot; }

    void cancel_slot(std::uint32_t id, std::uint32_t generation);
    [[nodiscard]] bool slot_pending(std::uint32_t id, std::uint32_t generation) const;

    Slot& acquire_slot();
    // Construct the next never-used slot, allocating its chunk on first use.
    Slot& fresh_slot();
    // Give a filled slot its sequence number and heap entry; push()'s
    // non-template half, out of line.
    EventHandle file(Slot& s, SimTime at, bool daemon);
    [[noreturn]] static void throw_empty(const char* what);
    // Destroy the slot's callback and put it on the free list.
    void free_slot(Slot& s) const;
    // Take the earliest live event off the heap and bump its slot's
    // generation; the slot keeps its callback until free_slot().
    HeapEntry take();

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
// Hot-path definitions, kept in the header so callers inline them: a
// callable is constructed in its slot where it is scheduled. The rest of a
// push (file) and run_next are one out-of-line call each.

inline EventQueue::Slot& EventQueue::acquire_slot() {
    if (Slot* s = store_.free_head) {
        store_.free_head = s->next_free;
        return *s;
    }
    return fresh_slot();
}

inline void EventQueue::free_slot(Slot& s) const {
    s.cb = nullptr;
    s.cancelled = false;
    s.next_free = store_.free_head;
    store_.free_head = &s;
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
    while (!heap_empty() && store_.heap[kRoot].slot->cancelled) {
        Slot& s = *store_.heap[kRoot].slot;
        // Bump the generation so stale handles to the old occupant can
        // neither cancel nor observe the slot's next tenant.
        ++s.generation;
        free_slot(s);
        pop_top();
        --store_.dead;
    }
}

template <typename F>
EventHandle EventQueue::push(SimTime at, F&& fn, bool daemon) {
    using D = std::decay_t<F>;
    static_assert(std::is_invocable_r_v<void, D&>, "EventQueue::push: not a void() callable");
    Slot& s = acquire_slot();
    if constexpr (std::is_same_v<D, Callback>) {
        s.cb = std::forward<F>(fn);
    } else {
        try {
            s.cb.template emplace<D>(std::forward<F>(fn));
        } catch (...) {
            free_slot(s);
            throw;
        }
    }
    return file(s, at, daemon);
}

inline EventQueue::HeapEntry EventQueue::take() {
    drop_dead();
    if (heap_empty()) throw_empty("EventQueue: no live event to take");
    const HeapEntry top = store_.heap[kRoot];
    Slot& s = *top.slot;
    ++s.generation; // the handle now reports "not pending"; cancel() is a no-op
    --live_;
    if (!s.daemon) --live_user_;
    pop_top();
    return top;
}

inline std::pair<SimTime, EventQueue::Callback> EventQueue::pop() {
    const HeapEntry top = take();
    std::pair<SimTime, Callback> out{top.at, std::move(top.slot->cb)};
    free_slot(*top.slot);
    return out;
}

inline bool EventQueue::next_is_daemon() const {
    drop_dead();
    if (heap_empty()) throw_empty("EventQueue::next_is_daemon on empty queue");
    return store_.heap[kRoot].slot->daemon;
}

inline SimTime EventQueue::next_time() const {
    drop_dead();
    if (heap_empty()) throw_empty("EventQueue::next_time on empty queue");
    return store_.heap[kRoot].at;
}

} // namespace tedge::sim

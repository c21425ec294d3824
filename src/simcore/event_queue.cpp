// Cold-path members of EventQueue. The per-event hot path (push/pop/sift)
// lives inline in the header; cancellation, handle queries and reserve() are
// rare enough that an out-of-line definition keeps rebuilds cheap.
#include "simcore/event_queue.hpp"

namespace tedge::sim {

void EventHandle::cancel() {
    if (queue_) queue_->cancel_slot(slot_, generation_);
}

bool EventHandle::pending() const {
    return queue_ && queue_->slot_pending(slot_, generation_);
}

void EventQueue::cancel_slot(std::uint32_t slot, std::uint32_t generation) {
    if (slot >= store_.slots.size()) return;
    Slot& s = store_.slots[slot];
    if (!s.in_use || s.cancelled || s.generation != generation) return;
    s.cancelled = true;
    s.cb = nullptr; // release captures eagerly; the heap entry is a tombstone
    ++store_.dead;
    --live_;
    if (!s.daemon) --live_user_;
}

bool EventQueue::slot_pending(std::uint32_t slot, std::uint32_t generation) const {
    if (slot >= store_.slots.size()) return false;
    const Slot& s = store_.slots[slot];
    return s.in_use && !s.cancelled && s.generation == generation;
}

void EventQueue::reserve(std::size_t events) {
    store_.slots.reserve(events);
    store_.heap.reserve(events + kRoot);
}

} // namespace tedge::sim

// Out-of-line members of EventQueue: the filing half of push and run_next,
// one call each per event, and the cold paths (cancellation, handle
// queries, slot construction and reserve()).
#include "simcore/event_queue.hpp"

#include <memory>
#include <stdexcept>

namespace tedge::sim {

void EventHandle::cancel() {
    if (queue_) queue_->cancel_slot(slot_, generation_);
}

bool EventHandle::pending() const {
    return queue_ && queue_->slot_pending(slot_, generation_);
}

EventQueue::~EventQueue() {
    // Slots are destroyed in id order (pending callbacks release their
    // captures), then their chunks are returned.
    for (std::uint32_t id = 0; id < store_.constructed; ++id) slot(id).~Slot();
    std::allocator<Slot> allocator;
    for (unsigned chunk = 0; chunk < kChunks && store_.chunks[chunk] != nullptr;
         ++chunk) {
        allocator.deallocate(store_.chunks[chunk], chunk_size(chunk));
    }
}

EventQueue::Slot& EventQueue::fresh_slot() {
    const std::uint32_t id = store_.constructed;
    const unsigned chunk = chunk_of(id);
    // Raw storage: each slot is constructed when it is first handed out, so
    // pages beyond the slots in use stay untouched.
    if (store_.chunks[chunk] == nullptr) {
        store_.chunks[chunk] = std::allocator<Slot>().allocate(chunk_size(chunk));
    }
    Slot* s = ::new (static_cast<void*>(&store_.chunks[chunk][id - chunk_start(chunk)])) Slot();
    s->id = id;
    ++store_.constructed;
    return *s;
}

void EventQueue::throw_empty(const char* what) { throw std::logic_error(what); }

EventHandle EventQueue::file(Slot& s, SimTime at, bool daemon) {
    s.seq = seq_++;
    s.daemon = daemon;
    store_.heap.push_back(HeapEntry{at, &s});
    sift_up(store_.heap.size() - 1);
    ++live_;
    if (!daemon) ++live_user_;
    return EventHandle{this, s.id, s.generation};
}

void EventQueue::run_next(SimTime& clock) {
    const HeapEntry top = take();
    clock = top.at;
    // Frees the slot after the callback, also when it throws: only then may
    // a later push reuse it.
    struct Release {
        const EventQueue& queue;
        Slot& slot;
        ~Release() { queue.free_slot(slot); }
    } const release{*this, *top.slot};
    top.slot->cb();
}

void EventQueue::cancel_slot(std::uint32_t id, std::uint32_t generation) {
    if (id >= store_.constructed) return;
    Slot& s = slot(id);
    // A freed or running slot's generation has moved past every handle.
    if (s.cancelled || s.generation != generation) return;
    s.cancelled = true;
    s.cb = nullptr; // release captures eagerly; the heap entry is a tombstone
    ++store_.dead;
    --live_;
    if (!s.daemon) --live_user_;
}

bool EventQueue::slot_pending(std::uint32_t id, std::uint32_t generation) const {
    if (id >= store_.constructed) return false;
    const Slot& s = slot(id);
    return !s.cancelled && s.generation == generation;
}

void EventQueue::reserve(std::size_t events) {
    store_.heap.reserve(events + kRoot);
}

} // namespace tedge::sim

// Reusable slots addressed by a stable 32-bit index, with a LIFO free list.
//
// A layer that holds per-request state (an HTTP exchange, a packet in the
// switch pipeline, a client's pending request record) keeps it in a slot, so
// the kernel events and continuations it schedules capture only
// `(owner, slot)`: 12-16 bytes that fit UniqueFunction's 48-byte inline
// buffer. The state itself never could -- a UniqueFunction continuation is
// 64 bytes on its own -- so capturing it by value costs one heap allocation
// per hop. A warm pool allocates nothing: acquire() reuses the most
// recently released slot and grows the storage only while every slot is
// live.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

namespace tedge::sim {

template <typename T>
class SlotPool {
public:
    /// A free slot. A new slot holds a value-initialized T; a reused one
    /// holds whatever its previous tenant left, so the caller assigns every
    /// field it reads. Growing the pool moves the slots: never hold a
    /// reference to one across acquire().
    std::uint32_t acquire() {
        if (free_.empty()) {
            slots_.emplace_back();
            return static_cast<std::uint32_t>(slots_.size() - 1);
        }
        const std::uint32_t slot = free_.back();
        free_.pop_back();
        return slot;
    }

    /// Return a slot to the free list. Its contents stay until reuse.
    void release(std::uint32_t slot) { free_.push_back(slot); }

    T& operator[](std::uint32_t slot) { return slots_[slot]; }

    /// Slots ever created: the peak number live at once.
    [[nodiscard]] std::size_t capacity() const { return slots_.size(); }

private:
    std::vector<T> slots_;
    std::vector<std::uint32_t> free_;
};

} // namespace tedge::sim

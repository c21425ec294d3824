// Move-only type-erased callable with small-buffer optimization.
//
// The event kernel schedules millions of short-lived closures; std::function
// heap-allocates anything beyond ~2 pointers of captures and requires
// copyability. UniqueFunction stores callables up to kInlineSize bytes inline
// (no allocation) and accepts move-only captures. The dispatch table is three
// raw function pointers, so an empty-check plus an indirect call is the whole
// invocation cost.
#pragma once

#include <cstddef>
#include <memory>
#include <new>
#include <type_traits>
#include <utility>

namespace tedge::sim {

template <typename Signature>
class UniqueFunction;

template <typename R, typename... Args>
class UniqueFunction<R(Args...)> {
public:
    /// Inline storage: sized so that typical simulation lambdas (a `this`
    /// pointer plus a handful of captured values) and a std::function<void()>
    /// both fit without touching the allocator.
    static constexpr std::size_t kInlineSize = 48;
    static constexpr std::size_t kInlineAlign = alignof(std::max_align_t);

    UniqueFunction() noexcept = default;
    UniqueFunction(std::nullptr_t) noexcept {}

    template <typename F,
              typename D = std::decay_t<F>,
              typename = std::enable_if_t<!std::is_same_v<D, UniqueFunction> &&
                                          std::is_invocable_r_v<R, D&, Args...>>>
    UniqueFunction(F&& f) {
        construct<D>(std::forward<F>(f));
    }

    /// Destroy the held callable, if any, and construct a `D` from `args`
    /// directly in this object's storage: an owner that keeps its
    /// UniqueFunction in place (an event-queue slot) builds the callable
    /// there once instead of building it elsewhere and relocating it in.
    template <typename D, typename... CArgs>
    void emplace(CArgs&&... args) {
        static_assert(std::is_invocable_r_v<R, D&, Args...>,
                      "UniqueFunction::emplace: D is not callable with this signature");
        reset();
        construct<D>(std::forward<CArgs>(args)...);
    }

    UniqueFunction(UniqueFunction&& other) noexcept : ops_(other.ops_) {
        if (ops_) {
            ops_->relocate(&storage_, &other.storage_);
            other.ops_ = nullptr;
        }
    }

    UniqueFunction& operator=(UniqueFunction&& other) noexcept {
        if (this != &other) {
            reset();
            ops_ = other.ops_;
            if (ops_) {
                ops_->relocate(&storage_, &other.storage_);
                other.ops_ = nullptr;
            }
        }
        return *this;
    }

    UniqueFunction(const UniqueFunction&) = delete;
    UniqueFunction& operator=(const UniqueFunction&) = delete;

    ~UniqueFunction() { reset(); }

    UniqueFunction& operator=(std::nullptr_t) noexcept {
        reset();
        return *this;
    }

    R operator()(Args... args) {
        return ops_->invoke(&storage_, std::forward<Args>(args)...);
    }

    explicit operator bool() const noexcept { return ops_ != nullptr; }

private:
    struct Ops {
        R (*invoke)(void*, Args&&...);
        // Move-construct into `dst` from `src`, then destroy `src`'s object.
        void (*relocate)(void* dst, void* src) noexcept;
        void (*destroy)(void*) noexcept;
    };

    template <typename D, typename... CArgs>
    void construct(CArgs&&... args) {
        if constexpr (fits_inline<D>()) {
            ::new (static_cast<void*>(&storage_)) D(std::forward<CArgs>(args)...);
            ops_ = &inline_ops<D>;
        } else {
            ::new (static_cast<void*>(&storage_)) D*(new D(std::forward<CArgs>(args)...));
            ops_ = &heap_ops<D>;
        }
    }

    template <typename D>
    static constexpr bool fits_inline() {
        return sizeof(D) <= kInlineSize && alignof(D) <= kInlineAlign &&
               std::is_nothrow_move_constructible_v<D>;
    }

    template <typename D>
    static constexpr Ops inline_ops = {
        [](void* buf, Args&&... args) -> R {
            return (*std::launder(static_cast<D*>(buf)))(std::forward<Args>(args)...);
        },
        [](void* dst, void* src) noexcept {
            D* from = std::launder(static_cast<D*>(src));
            ::new (dst) D(std::move(*from));
            from->~D();
        },
        [](void* buf) noexcept { std::launder(static_cast<D*>(buf))->~D(); },
    };

    template <typename D>
    static constexpr Ops heap_ops = {
        [](void* buf, Args&&... args) -> R {
            return (**std::launder(static_cast<D**>(buf)))(std::forward<Args>(args)...);
        },
        [](void* dst, void* src) noexcept {
            ::new (dst) D*(*std::launder(static_cast<D**>(src)));
        },
        [](void* buf) noexcept { delete *std::launder(static_cast<D**>(buf)); },
    };

    void reset() noexcept {
        if (ops_) {
            ops_->destroy(&storage_);
            ops_ = nullptr;
        }
    }

    alignas(kInlineAlign) std::byte storage_[kInlineSize];
    const Ops* ops_ = nullptr;
};

} // namespace tedge::sim

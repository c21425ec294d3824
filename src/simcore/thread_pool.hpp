// Work-stealing-free, queue-based thread pool used to run independent
// simulation replicas in parallel (one Simulation per task; the kernel itself
// is single-threaded and deterministic, so parallelism lives *across* runs).
// Also home to the low-level waiting primitive the sharded coordinator's
// lanes use: the spin-then-park Eventcount.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <future>
#include <mutex>
#include <queue>
#include <thread>
#include <vector>

namespace tedge::sim {

/// Hint the CPU that the caller is spinning (PAUSE/YIELD where available).
void cpu_relax() noexcept;

/// Futex-style wait gate: one epoch counter on the fast path, mutex + condvar
/// only on the park slow path. The waiter protocol is
///
///     const auto ticket = gate.prepare();
///     if (recheck_condition()) continue;   // condition raced ahead: no park
///     gate.wait(ticket);
///
/// and a notifier makes its state visible (e.g. stores a dirty flag) *before*
/// calling notify(). notify() bumps the epoch, so any waiter holding an older
/// ticket either never parks (the spin loop sees the bump) or is woken from
/// the condvar. The waiter/epoch handshake uses seq_cst on both sides, which
/// rules out the classic lost-wakeup interleaving: if the notifier reads zero
/// waiters, the waiter's registration is later in the total order, so its
/// subsequent epoch check must observe the bump.
class Eventcount {
public:
    /// Take a wait ticket. Re-check the wakeup condition *after* this.
    [[nodiscard]] std::uint64_t prepare() const {
        return epoch_.load(std::memory_order_seq_cst);
    }

    /// Wake all current and in-flight waiters. Cheap when nobody waits: one
    /// RMW plus one load, no mutex.
    void notify();

    /// Block until the epoch leaves `ticket`: spin `spin` times, then park on
    /// the condvar. Returns true iff it parked (the slow path); when
    /// `parked_ns` is non-null it receives the wall-clock time spent parked.
    bool wait(std::uint64_t ticket, std::uint64_t* parked_ns = nullptr,
              int spin = 512);

private:
    std::atomic<std::uint64_t> epoch_{0};
    std::atomic<std::uint32_t> waiters_{0};
    std::mutex mu_;
    std::condition_variable cv_;
};

class ThreadPool {
public:
    /// Create a pool with `threads` workers (0 -> hardware_concurrency).
    explicit ThreadPool(std::size_t threads = 0);
    ~ThreadPool();

    ThreadPool(const ThreadPool&) = delete;
    ThreadPool& operator=(const ThreadPool&) = delete;

    [[nodiscard]] std::size_t size() const { return workers_.size(); }

    /// Enqueue a task; the returned future reports its result/exception.
    template <typename F>
    auto submit(F&& f) -> std::future<std::invoke_result_t<F>> {
        using R = std::invoke_result_t<F>;
        auto task = std::make_shared<std::packaged_task<R()>>(std::forward<F>(f));
        auto fut = task->get_future();
        {
            std::lock_guard lock(mu_);
            if (stopping_) throw std::runtime_error("ThreadPool is stopping");
            queue_.emplace([task] { (*task)(); });
        }
        cv_.notify_one();
        return fut;
    }

    /// Run fn(i) for i in [0, n) across the pool and wait for completion.
    /// Exceptions from tasks are rethrown (the first one encountered).
    void parallel_for(std::size_t n, const std::function<void(std::size_t)>& fn);

private:
    void worker_loop();

    std::vector<std::thread> workers_;
    std::queue<std::function<void()>> queue_;
    std::mutex mu_;
    std::condition_variable cv_;
    bool stopping_ = false;
};

} // namespace tedge::sim

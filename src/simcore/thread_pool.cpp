#include "simcore/thread_pool.hpp"

#include <algorithm>
#include <chrono>

namespace tedge::sim {

void cpu_relax() noexcept {
#if defined(__x86_64__) || defined(__i386__)
    __builtin_ia32_pause();
#elif defined(__aarch64__)
    asm volatile("yield" ::: "memory");
#else
    std::this_thread::yield();
#endif
}

void Eventcount::notify() {
    epoch_.fetch_add(1, std::memory_order_seq_cst);
    if (waiters_.load(std::memory_order_seq_cst) != 0) {
        // Taking the mutex (even empty-handed) orders this notify after any
        // waiter that registered but has not yet entered cv_.wait; without it
        // the notify_all could fire into the gap and be lost.
        std::lock_guard<std::mutex> lock(mu_);
        cv_.notify_all();
    }
}

bool Eventcount::wait(std::uint64_t ticket, std::uint64_t* parked_ns, int spin) {
    for (int i = 0; i < spin; ++i) {
        if (epoch_.load(std::memory_order_seq_cst) != ticket) return false;
        cpu_relax();
    }
    const auto t0 = std::chrono::steady_clock::now();
    waiters_.fetch_add(1, std::memory_order_seq_cst);
    {
        std::unique_lock<std::mutex> lock(mu_);
        cv_.wait(lock, [&] {
            return epoch_.load(std::memory_order_seq_cst) != ticket;
        });
    }
    waiters_.fetch_sub(1, std::memory_order_seq_cst);
    if (parked_ns != nullptr) {
        *parked_ns += static_cast<std::uint64_t>(
            std::chrono::duration_cast<std::chrono::nanoseconds>(
                std::chrono::steady_clock::now() - t0)
                .count());
    }
    return true;
}

ThreadPool::ThreadPool(std::size_t threads) {
    if (threads == 0) {
        threads = std::max(1u, std::thread::hardware_concurrency());
    }
    workers_.reserve(threads);
    for (std::size_t i = 0; i < threads; ++i) {
        workers_.emplace_back([this] { worker_loop(); });
    }
}

ThreadPool::~ThreadPool() {
    {
        std::lock_guard lock(mu_);
        stopping_ = true;
    }
    cv_.notify_all();
    for (auto& w : workers_) w.join();
}

void ThreadPool::worker_loop() {
    for (;;) {
        std::function<void()> task;
        {
            std::unique_lock lock(mu_);
            cv_.wait(lock, [this] { return stopping_ || !queue_.empty(); });
            if (queue_.empty()) return; // stopping and drained
            task = std::move(queue_.front());
            queue_.pop();
        }
        task();
    }
}

void ThreadPool::parallel_for(std::size_t n,
                              const std::function<void(std::size_t)>& fn) {
    std::vector<std::future<void>> futures;
    futures.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
        futures.push_back(submit([&fn, i] { fn(i); }));
    }
    std::exception_ptr first_error;
    for (auto& f : futures) {
        try {
            f.get();
        } catch (...) {
            if (!first_error) first_error = std::current_exception();
        }
    }
    if (first_error) std::rethrow_exception(first_error);
}

} // namespace tedge::sim

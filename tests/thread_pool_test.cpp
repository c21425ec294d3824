// Thread pool tests: parallelism across simulation replicas.
#include <gtest/gtest.h>

#include <atomic>
#include <numeric>
#include <string>
#include <vector>

#include "simcore/random.hpp"
#include "simcore/simulation.hpp"
#include "simcore/thread_pool.hpp"
#include "workload/metrics.hpp"

namespace tedge::sim {
namespace {

TEST(ThreadPool, RunsAllTasks) {
    ThreadPool pool(4);
    std::atomic<int> counter{0};
    std::vector<std::future<int>> futures;
    for (int i = 0; i < 100; ++i) {
        futures.push_back(pool.submit([&counter, i] {
            ++counter;
            return i * 2;
        }));
    }
    int sum = 0;
    for (auto& f : futures) sum += f.get();
    EXPECT_EQ(counter.load(), 100);
    EXPECT_EQ(sum, 2 * (99 * 100) / 2);
}

TEST(ThreadPool, ParallelForCoversAllIndices) {
    ThreadPool pool(8);
    std::vector<std::atomic<int>> hits(256);
    pool.parallel_for(256, [&](std::size_t i) { ++hits[i]; });
    for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, ExceptionsPropagate) {
    ThreadPool pool(2);
    auto future = pool.submit([]() -> int { throw std::runtime_error("boom"); });
    EXPECT_THROW(future.get(), std::runtime_error);
    EXPECT_THROW(pool.parallel_for(4,
                                   [](std::size_t i) {
                                       if (i == 2) throw std::runtime_error("x");
                                   }),
                 std::runtime_error);
}

TEST(ThreadPool, DefaultSizeIsPositive) {
    ThreadPool pool;
    EXPECT_GE(pool.size(), 1u);
}

// Replicas the way the bench drivers run them (bench/common.cpp): one
// result slot per seed, filled by parallel_for.
TEST(Replicas, ParallelForCollectsResultsInSeedOrder) {
    ThreadPool pool(4);
    std::vector<std::uint64_t> results(8);
    pool.parallel_for(results.size(), [&](std::size_t i) { results[i] = (5 + i) * 10; });
    for (std::size_t i = 0; i < results.size(); ++i) {
        EXPECT_EQ(results[i], (5 + i) * 10);
    }
}

TEST(Replicas, ReplicatedSimulationsAreIndependent) {
    // Each replica runs its own Simulation on a pool thread; results must be
    // deterministic per seed regardless of scheduling.
    auto one = [](std::uint64_t seed) {
        Simulation sim;
        Rng rng(seed);
        double total = 0;
        for (int i = 0; i < 50; ++i) {
            sim.schedule(from_seconds(rng.uniform(0.0, 1.0)),
                         [&total, &sim] { total += sim.now().seconds(); });
        }
        sim.run();
        return total;
    };
    const auto replicate = [&] {
        ThreadPool pool(4);
        std::vector<double> results(6);
        pool.parallel_for(results.size(), [&](std::size_t i) { results[i] = one(1 + i); });
        return results;
    };
    const auto a = replicate();
    const auto b = replicate();
    EXPECT_EQ(a, b);
    EXPECT_NE(a[0], a[1]); // different seeds -> different runs
}

// Replicas intern request names into one process-wide table at once: every
// thread gets the same handle for the same name (run under TSan in CI).
TEST(Replicas, ServiceNamesInternAcrossThreads) {
    ThreadPool pool(4);
    std::vector<std::vector<workload::ServiceName>> names(8);
    pool.parallel_for(names.size(), [&](std::size_t i) {
        for (int s = 0; s < 64; ++s) {
            names[i].emplace_back("replica-svc" + std::to_string((s + i) % 64));
        }
    });
    for (std::size_t i = 0; i < names.size(); ++i) {
        for (int s = 0; s < 64; ++s) {
            const workload::ServiceName& name = names[i][static_cast<std::size_t>(s)];
            EXPECT_EQ(name, "replica-svc" + std::to_string((s + i) % 64));
            EXPECT_EQ(name, names[0][(s + i) % 64]);
        }
    }
}

} // namespace
} // namespace tedge::sim

// Seeded random-number suite for reproducible experiments.
//
// We use xoshiro256** (public-domain; Blackman & Vigna) seeded via SplitMix64
// so that a single 64-bit experiment seed expands into independent,
// well-mixed streams. Distributions are implemented here rather than via
// <random> distributions because libstdc++/libc++ distributions are not
// cross-platform-stable; ours are, which keeps experiment outputs identical
// everywhere.
#pragma once

#include <array>
#include <cstdint>
#include <vector>

namespace tedge::sim {

/// xoshiro256** PRNG. Satisfies UniformRandomBitGenerator.
class Rng {
public:
    using result_type = std::uint64_t;

    explicit Rng(std::uint64_t seed = 0x9e3779b97f4a7c15ULL);

    static constexpr result_type min() { return 0; }
    static constexpr result_type max() { return ~0ULL; }

    result_type operator()();

    /// Derive an independent child stream (e.g., one per simulated node).
    [[nodiscard]] Rng split();

    /// Derive the seed of an independent stream from a run seed and a stable
    /// stream id. Unlike split(), the derivation consumes no generator state:
    /// stream `id` always yields the same seed for a given run seed, no
    /// matter how many other streams exist or in which order they are
    /// created. The sharded kernel uses this for per-domain RNGs -- each
    /// Domain draws from for_stream(run_seed, domain_id), so its sequence is
    /// independent of shard count, thread count, and domain creation order.
    [[nodiscard]] static std::uint64_t stream_seed(std::uint64_t run_seed,
                                                   std::uint64_t stream_id);

    /// Convenience: an Rng seeded with stream_seed(run_seed, stream_id).
    [[nodiscard]] static Rng for_stream(std::uint64_t run_seed,
                                        std::uint64_t stream_id);

    /// Uniform double in [0, 1).
    double uniform01();

    /// Uniform double in [lo, hi).
    double uniform(double lo, double hi);

    /// Uniform integer in [lo, hi] (inclusive). Requires lo <= hi.
    std::int64_t uniform_int(std::int64_t lo, std::int64_t hi);

    /// Exponential with the given mean (mean > 0).
    double exponential(double mean);

    /// Log-normal parameterized by the *target* median and sigma of the
    /// underlying normal. median(X) = median, and sigma controls spread.
    double lognormal_median(double median, double sigma);

    /// Normal (Box-Muller; consumes two uniforms every call, no cached spare,
    /// to keep the stream position deterministic and split-friendly).
    double normal(double mean, double stddev);

    /// Bernoulli trial.
    bool chance(double p);

    /// Poisson count with the given mean (mean >= 0). Exact (Knuth product)
    /// for small means; large means use the normal approximation, whose
    /// relative error is O(1/sqrt(mean)) -- negligible at the batch sizes
    /// workload::FluidPoissonStream draws. Either branch consumes a
    /// deterministic position-stable slice of the stream for a given mean.
    std::uint64_t poisson(double mean);

    /// Pick an index in [0, weights.size()) proportionally to weights.
    /// Requires a non-empty vector with non-negative entries and positive sum.
    std::size_t weighted_index(const std::vector<double>& weights);

private:
    std::array<std::uint64_t, 4> s_{};
};

/// Zipf(s, n) sampler over ranks {0, .., n-1}: P(k) proportional to 1/(k+1)^s.
/// Precomputes the CDF once; sampling is a binary search.
class ZipfDistribution {
public:
    ZipfDistribution(std::size_t n, double s);

    [[nodiscard]] std::size_t n() const { return cdf_.size(); }

    std::size_t sample(Rng& rng) const;

    /// Probability mass of rank k.
    [[nodiscard]] double pmf(std::size_t k) const;

private:
    std::vector<double> cdf_;
};

} // namespace tedge::sim

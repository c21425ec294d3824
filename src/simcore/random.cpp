#include "simcore/random.hpp"

#include <algorithm>
#include <cmath>
#include <numbers>
#include <stdexcept>
#include <utility>

namespace tedge::sim {
namespace {

std::uint64_t splitmix64(std::uint64_t& x) {
    x += 0x9e3779b97f4a7c15ULL;
    std::uint64_t z = x;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
}

std::uint64_t rotl(std::uint64_t x, int k) {
    return (x << k) | (x >> (64 - k));
}

} // namespace

Rng::Rng(std::uint64_t seed) {
    std::uint64_t sm = seed;
    for (auto& w : s_) w = splitmix64(sm);
}

Rng::result_type Rng::operator()() {
    const std::uint64_t result = rotl(s_[1] * 5, 7) * 9;
    const std::uint64_t t = s_[1] << 17;
    s_[2] ^= s_[0];
    s_[3] ^= s_[1];
    s_[1] ^= s_[2];
    s_[0] ^= s_[3];
    s_[2] ^= t;
    s_[3] = rotl(s_[3], 45);
    return result;
}

Rng Rng::split() {
    // A fresh generator seeded from this stream; statistically independent
    // for simulation purposes.
    return Rng{(*this)()};
}

std::uint64_t Rng::stream_seed(std::uint64_t run_seed, std::uint64_t stream_id) {
    // Two SplitMix64 steps over (run_seed, stream_id): the first whitens the
    // run seed, the second folds in the stream id, so adjacent ids (0, 1, 2,
    // ...) land far apart in seed space. Stateless and order-free.
    std::uint64_t x = run_seed;
    const std::uint64_t a = splitmix64(x);
    x = a ^ (stream_id * 0xd1342543de82ef95ULL + 0x2545f4914f6cdd1dULL);
    return splitmix64(x);
}

Rng Rng::for_stream(std::uint64_t run_seed, std::uint64_t stream_id) {
    return Rng{stream_seed(run_seed, stream_id)};
}

double Rng::uniform01() {
    // 53 random mantissa bits -> uniform double in [0,1).
    return static_cast<double>((*this)() >> 11) * 0x1.0p-53;
}

double Rng::uniform(double lo, double hi) {
    return lo + (hi - lo) * uniform01();
}

std::int64_t Rng::uniform_int(std::int64_t lo, std::int64_t hi) {
    if (lo > hi) throw std::invalid_argument("uniform_int: lo > hi");
    const std::uint64_t span = static_cast<std::uint64_t>(hi - lo) + 1;
    if (span == 0) return static_cast<std::int64_t>((*this)()); // full range
    // Debiased modulo (rejection sampling).
    const std::uint64_t limit = (~0ULL) - (~0ULL) % span;
    std::uint64_t v;
    do { v = (*this)(); } while (v >= limit);
    return lo + static_cast<std::int64_t>(v % span);
}

double Rng::exponential(double mean) {
    if (mean <= 0) throw std::invalid_argument("exponential: mean <= 0");
    double u;
    do { u = uniform01(); } while (u <= 0.0);
    return -mean * std::log(u);
}

double Rng::lognormal_median(double median, double sigma) {
    if (median <= 0) throw std::invalid_argument("lognormal: median <= 0");
    return median * std::exp(sigma * normal(0.0, 1.0));
}

double Rng::normal(double mean, double stddev) {
    double u1;
    do { u1 = uniform01(); } while (u1 <= 0.0);
    const double u2 = uniform01();
    const double z = std::sqrt(-2.0 * std::log(u1)) *
                     std::cos(2.0 * std::numbers::pi * u2);
    return mean + stddev * z;
}

bool Rng::chance(double p) {
    return uniform01() < p;
}

namespace {

double checked_total(const std::vector<double>& weights) {
    if (weights.empty()) throw std::invalid_argument("weighted_index: empty");
    double total = 0;
    for (double w : weights) {
        if (w < 0) throw std::invalid_argument("weighted_index: negative weight");
        total += w;
    }
    if (total <= 0) throw std::invalid_argument("weighted_index: zero total");
    return total;
}

std::size_t pick_weighted(Rng& rng, const std::vector<double>& weights, double total) {
    double r = rng.uniform(0.0, total);
    for (std::size_t i = 0; i < weights.size(); ++i) {
        r -= weights[i];
        if (r < 0) return i;
    }
    return weights.size() - 1;
}

} // namespace

std::size_t Rng::weighted_index(const std::vector<double>& weights) {
    return pick_weighted(*this, weights, checked_total(weights));
}

WeightedSampler::WeightedSampler(std::vector<double> weights)
    : weights_(std::move(weights)), total_(checked_total(weights_)) {}

std::size_t WeightedSampler::operator()(Rng& rng) const {
    return pick_weighted(rng, weights_, total_);
}

ZipfDistribution::ZipfDistribution(std::size_t n, double s) {
    if (n == 0) throw std::invalid_argument("zipf: n == 0");
    cdf_.resize(n);
    double acc = 0;
    for (std::size_t k = 0; k < n; ++k) {
        acc += 1.0 / std::pow(static_cast<double>(k + 1), s);
        cdf_[k] = acc;
    }
    for (auto& c : cdf_) c /= acc;
}

std::size_t ZipfDistribution::sample(Rng& rng) const {
    const double u = rng.uniform01();
    const auto it = std::lower_bound(cdf_.begin(), cdf_.end(), u);
    return static_cast<std::size_t>(std::distance(cdf_.begin(), it));
}

double ZipfDistribution::pmf(std::size_t k) const {
    if (k >= cdf_.size()) return 0.0;
    return k == 0 ? cdf_[0] : cdf_[k] - cdf_[k - 1];
}

} // namespace tedge::sim

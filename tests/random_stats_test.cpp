// Tests for the RNG suite, distributions, statistics collectors, and
// histograms -- including parameterized property sweeps.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "simcore/histogram.hpp"
#include "simcore/random.hpp"
#include "simcore/stats.hpp"

namespace tedge::sim {
namespace {

TEST(Rng, DeterministicPerSeed) {
    Rng a(123);
    Rng b(123);
    for (int i = 0; i < 1000; ++i) EXPECT_EQ(a(), b());
}

TEST(Rng, DifferentSeedsDiffer) {
    Rng a(1);
    Rng b(2);
    int equal = 0;
    for (int i = 0; i < 100; ++i) {
        if (a() == b()) ++equal;
    }
    EXPECT_LT(equal, 3);
}

TEST(Rng, SplitProducesIndependentStream) {
    Rng a(7);
    Rng child = a.split();
    // The child must not replay the parent's sequence.
    Rng parent_copy(7);
    static_cast<void>(parent_copy.split());
    EXPECT_EQ(child(), [&] { Rng c(7); return c.split()(); }());
    int equal = 0;
    for (int i = 0; i < 100; ++i) {
        if (a() == child()) ++equal;
    }
    EXPECT_LT(equal, 3);
}

TEST(Rng, Uniform01InRange) {
    Rng rng(3);
    for (int i = 0; i < 10000; ++i) {
        const double u = rng.uniform01();
        EXPECT_GE(u, 0.0);
        EXPECT_LT(u, 1.0);
    }
}

TEST(Rng, UniformIntInclusiveBounds) {
    Rng rng(4);
    bool saw_lo = false;
    bool saw_hi = false;
    for (int i = 0; i < 10000; ++i) {
        const auto v = rng.uniform_int(2, 5);
        EXPECT_GE(v, 2);
        EXPECT_LE(v, 5);
        saw_lo = saw_lo || v == 2;
        saw_hi = saw_hi || v == 5;
    }
    EXPECT_TRUE(saw_lo);
    EXPECT_TRUE(saw_hi);
    EXPECT_THROW(rng.uniform_int(5, 2), std::invalid_argument);
}

TEST(Rng, ExponentialMeanConverges) {
    Rng rng(5);
    OnlineStats stats;
    for (int i = 0; i < 50000; ++i) stats.add(rng.exponential(2.0));
    EXPECT_NEAR(stats.mean(), 2.0, 0.05);
    EXPECT_THROW(rng.exponential(0.0), std::invalid_argument);
}

class LognormalSweep : public ::testing::TestWithParam<double> {};

TEST_P(LognormalSweep, MedianMatchesTarget) {
    const double sigma = GetParam();
    Rng rng(11);
    SampleSet samples;
    for (int i = 0; i < 20000; ++i) {
        samples.add(rng.lognormal_median(3.0, sigma));
    }
    // Median of lognormal(median=m) is m, independent of sigma.
    EXPECT_NEAR(samples.median(), 3.0, 3.0 * 0.05);
    // All samples are positive.
    EXPECT_GT(samples.min(), 0.0);
}

INSTANTIATE_TEST_SUITE_P(Sigmas, LognormalSweep,
                         ::testing::Values(0.05, 0.1, 0.2, 0.4, 0.8));

TEST(Rng, NormalMoments) {
    Rng rng(6);
    OnlineStats stats;
    for (int i = 0; i < 50000; ++i) stats.add(rng.normal(10.0, 2.0));
    EXPECT_NEAR(stats.mean(), 10.0, 0.1);
    EXPECT_NEAR(stats.stddev(), 2.0, 0.1);
}

TEST(Rng, WeightedIndexRespectsWeights) {
    Rng rng(8);
    std::vector<double> weights{1.0, 0.0, 3.0};
    std::vector<int> counts(3, 0);
    for (int i = 0; i < 40000; ++i) {
        ++counts[rng.weighted_index(weights)];
    }
    EXPECT_EQ(counts[1], 0);
    EXPECT_NEAR(static_cast<double>(counts[2]) / counts[0], 3.0, 0.3);
    EXPECT_THROW(rng.weighted_index({}), std::invalid_argument);
    EXPECT_THROW(rng.weighted_index({0.0, 0.0}), std::invalid_argument);
    EXPECT_THROW(rng.weighted_index({-1.0, 2.0}), std::invalid_argument);
}

// The sampler validates and sums once; every pick must equal weighted_index's
// on the same generator state, including zero weights, a single weight, and
// a heavy tail where the running subtraction walks far.
TEST(Rng, WeightedSamplerPicksExactlyAsWeightedIndex) {
    const ZipfDistribution zipf(420, 1.1);
    std::vector<double> zipf_weights(420);
    for (std::size_t k = 0; k < zipf_weights.size(); ++k) zipf_weights[k] = zipf.pmf(k);
    const std::vector<std::vector<double>> vectors = {
        {1.0, 0.0, 3.0}, {5.0}, {0.0, 0.0, 2.5, 0.0}, {0.1, 0.2, 0.3, 0.4, 1e-9, 7.0},
        zipf_weights, std::vector<double>(100, 1.0 / 3.0)};
    for (const auto& weights : vectors) {
        const WeightedSampler sampler(weights);
        for (std::uint64_t seed = 1; seed <= 5; ++seed) {
            Rng by_index(seed);
            Rng by_sampler(seed);
            for (int i = 0; i < 5000; ++i) {
                ASSERT_EQ(sampler(by_sampler), by_index.weighted_index(weights))
                    << "seed " << seed << " draw " << i << " of " << weights.size();
            }
            EXPECT_EQ(by_sampler(), by_index()); // same stream position after
        }
    }
    EXPECT_THROW(WeightedSampler{std::vector<double>{}}, std::invalid_argument);
    EXPECT_THROW((WeightedSampler{{0.0, 0.0}}), std::invalid_argument);
    EXPECT_THROW((WeightedSampler{{-1.0, 2.0}}), std::invalid_argument);
}

class ZipfSweep : public ::testing::TestWithParam<double> {};

TEST_P(ZipfSweep, PmfSumsToOneAndIsMonotone) {
    const double s = GetParam();
    ZipfDistribution zipf(42, s);
    double sum = 0;
    for (std::size_t k = 0; k < 42; ++k) {
        sum += zipf.pmf(k);
        if (k > 0) {
            EXPECT_LE(zipf.pmf(k), zipf.pmf(k - 1) + 1e-12);
        }
    }
    EXPECT_NEAR(sum, 1.0, 1e-9);
    EXPECT_EQ(zipf.pmf(42), 0.0);
}

TEST_P(ZipfSweep, SamplesFollowPmf) {
    const double s = GetParam();
    ZipfDistribution zipf(10, s);
    Rng rng(9);
    std::vector<int> counts(10, 0);
    const int n = 100000;
    for (int i = 0; i < n; ++i) ++counts[zipf.sample(rng)];
    for (std::size_t k = 0; k < 10; ++k) {
        EXPECT_NEAR(static_cast<double>(counts[k]) / n, zipf.pmf(k), 0.01);
    }
}

INSTANTIATE_TEST_SUITE_P(Skews, ZipfSweep, ::testing::Values(0.5, 0.9, 1.2, 2.0));

TEST(OnlineStats, MatchesExactComputation) {
    OnlineStats stats;
    const std::vector<double> values{1, 2, 3, 4, 100};
    for (const double v : values) stats.add(v);
    EXPECT_EQ(stats.count(), 5u);
    EXPECT_DOUBLE_EQ(stats.mean(), 22.0);
    EXPECT_DOUBLE_EQ(stats.min(), 1.0);
    EXPECT_DOUBLE_EQ(stats.max(), 100.0);
    // Sample variance of {1,2,3,4,100}.
    EXPECT_NEAR(stats.variance(), 1902.5, 1e-9);
}

TEST(OnlineStats, MergeEqualsSingleStream) {
    OnlineStats a;
    OnlineStats b;
    OnlineStats whole;
    Rng rng(10);
    for (int i = 0; i < 1000; ++i) {
        const double v = rng.uniform(0, 100);
        (i % 2 == 0 ? a : b).add(v);
        whole.add(v);
    }
    a.merge(b);
    EXPECT_EQ(a.count(), whole.count());
    EXPECT_NEAR(a.mean(), whole.mean(), 1e-9);
    EXPECT_NEAR(a.variance(), whole.variance(), 1e-6);
    EXPECT_DOUBLE_EQ(a.min(), whole.min());
    EXPECT_DOUBLE_EQ(a.max(), whole.max());
}

TEST(SampleSet, ExactQuantiles) {
    SampleSet set;
    for (const double v : {4.0, 1.0, 3.0, 2.0, 5.0}) set.add(v);
    EXPECT_DOUBLE_EQ(set.median(), 3.0);
    EXPECT_DOUBLE_EQ(set.quantile(0.0), 1.0);
    EXPECT_DOUBLE_EQ(set.quantile(1.0), 5.0);
    EXPECT_DOUBLE_EQ(set.p25(), 2.0);
    EXPECT_DOUBLE_EQ(set.p75(), 4.0);
    EXPECT_DOUBLE_EQ(set.mean(), 3.0);
}

TEST(SampleSet, InterpolatesBetweenOrderStatistics) {
    SampleSet set;
    set.add(0.0);
    set.add(10.0);
    EXPECT_DOUBLE_EQ(set.median(), 5.0);
    EXPECT_DOUBLE_EQ(set.quantile(0.25), 2.5);
}

TEST(SampleSet, ErrorsOnEmptyOrBadArgs) {
    SampleSet set;
    EXPECT_THROW(static_cast<void>(set.median()), std::logic_error);
    set.add(1.0);
    EXPECT_THROW(static_cast<void>(set.quantile(-0.1)), std::invalid_argument);
    EXPECT_THROW(static_cast<void>(set.quantile(1.1)), std::invalid_argument);
}

TEST(SampleSet, MergeAndSummary) {
    SampleSet a;
    SampleSet b;
    a.add(1.0);
    b.add(3.0);
    a.merge(b);
    EXPECT_EQ(a.count(), 2u);
    EXPECT_DOUBLE_EQ(a.median(), 2.0);
    EXPECT_NE(a.summary().find("median"), std::string::npos);
    EXPECT_NE(a.summary().find("n=2"), std::string::npos);
}

TEST(Histogram, BinningAndOverflow) {
    Histogram h(0.0, 10.0, 10);
    h.add(-1.0);
    h.add(0.0);
    h.add(5.5);
    h.add(9.999);
    h.add(10.0);
    h.add(100.0);
    EXPECT_EQ(h.underflow(), 1u);
    EXPECT_EQ(h.overflow(), 2u);
    EXPECT_EQ(h.bin_count(0), 1u);
    EXPECT_EQ(h.bin_count(5), 1u);
    EXPECT_EQ(h.bin_count(9), 1u);
    EXPECT_EQ(h.total(), 6u);
    EXPECT_DOUBLE_EQ(h.bin_lo(5), 5.0);
    EXPECT_DOUBLE_EQ(h.bin_hi(5), 6.0);
    EXPECT_FALSE(h.ascii().empty());
    EXPECT_THROW(Histogram(1.0, 1.0, 4), std::invalid_argument);
    EXPECT_THROW(Histogram(0.0, 1.0, 0), std::invalid_argument);
}

TEST(Histogram, ExactUpperBoundIsOverflowNotLastBin) {
    // Bins are half-open [lo, hi): a sample at exactly x == hi belongs to
    // the overflow counter, never to the last bin.
    Histogram h(0.0, 100.0, 4);
    h.add(100.0);
    EXPECT_EQ(h.overflow(), 1u);
    EXPECT_EQ(h.bin_count(3), 0u);
    EXPECT_EQ(h.total(), 1u);
    // Just inside the range still lands in the last bin.
    h.add(99.9999);
    EXPECT_EQ(h.bin_count(3), 1u);
    EXPECT_EQ(h.overflow(), 1u);
    // Exactly on an interior boundary goes to the upper bin (75 opens bin 3).
    h.add(75.0);
    EXPECT_EQ(h.bin_count(3), 2u);
    EXPECT_EQ(h.bin_count(2), 0u);
}

TEST(TimeSeriesBins, NegativeTimeClampsToFirstBin) {
    // Events stamped before t=0 (e.g. a duration measured against a start
    // that was itself clamped) land in bin 0 and still count in total().
    TimeSeriesBins bins(seconds(10), seconds(1));
    bins.add(seconds(-5));
    bins.add(milliseconds(-1));
    EXPECT_EQ(bins.bin_count(0), 2u);
    EXPECT_EQ(bins.total(), 2u);
}

TEST(TimeSeriesBins, HorizonAndBeyondClampToLastBin) {
    TimeSeriesBins bins(seconds(10), seconds(1));
    bins.add(seconds(10));   // t == horizon: clamped, not dropped
    bins.add(seconds(10) + milliseconds(1));
    bins.add(seconds(1000));
    EXPECT_EQ(bins.bin_count(9), 3u);
    EXPECT_EQ(bins.total(), 3u);
    EXPECT_EQ(bins.max_bin(), 3u);
}

TEST(TimeSeriesBins, CountsAndClamping) {
    TimeSeriesBins bins(seconds(10), seconds(1));
    bins.add(milliseconds(500));
    bins.add(seconds(3));
    bins.add(seconds(99));  // clamped into the last bin
    EXPECT_EQ(bins.bins(), 10u);
    EXPECT_EQ(bins.bin_count(0), 1u);
    EXPECT_EQ(bins.bin_count(3), 1u);
    EXPECT_EQ(bins.bin_count(9), 1u);
    EXPECT_EQ(bins.total(), 3u);
    EXPECT_EQ(bins.max_bin(), 1u);
    EXPECT_EQ(bins.bin_start(3), seconds(3));
    EXPECT_FALSE(bins.ascii().empty());
}

} // namespace
} // namespace tedge::sim

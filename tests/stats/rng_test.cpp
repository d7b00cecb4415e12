#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "fmore/stats/rng.hpp"

namespace fmore::stats {
namespace {

TEST(Rng, UniformRespectsBounds) {
    Rng rng(1);
    for (int i = 0; i < 1000; ++i) {
        const double x = rng.uniform(-2.5, 7.5);
        EXPECT_GE(x, -2.5);
        EXPECT_LT(x, 7.5);
    }
}

TEST(Rng, UniformMeanIsCentered) {
    Rng rng(2);
    double total = 0.0;
    constexpr int n = 20000;
    for (int i = 0; i < n; ++i) total += rng.uniform(0.0, 1.0);
    EXPECT_NEAR(total / n, 0.5, 0.02);
}

TEST(Rng, UniformIntCoversRangeInclusive) {
    Rng rng(3);
    std::set<std::int64_t> seen;
    for (int i = 0; i < 2000; ++i) seen.insert(rng.uniform_int(0, 5));
    EXPECT_EQ(seen.size(), 6u);
    EXPECT_EQ(*seen.begin(), 0);
    EXPECT_EQ(*seen.rbegin(), 5);
}

TEST(Rng, UniformThrowsOnBadBounds) {
    Rng rng(4);
    EXPECT_THROW(rng.uniform(1.0, 0.0), std::invalid_argument);
    EXPECT_THROW(rng.uniform_int(3, 2), std::invalid_argument);
}

TEST(Rng, NormalMatchesMoments) {
    Rng rng(5);
    double total = 0.0;
    double sq = 0.0;
    constexpr int n = 40000;
    for (int i = 0; i < n; ++i) {
        const double x = rng.normal(2.0, 3.0);
        total += x;
        sq += x * x;
    }
    const double mean = total / n;
    const double var = sq / n - mean * mean;
    EXPECT_NEAR(mean, 2.0, 0.08);
    EXPECT_NEAR(var, 9.0, 0.35);
}

TEST(Rng, BernoulliFrequency) {
    Rng rng(6);
    int heads = 0;
    constexpr int n = 20000;
    for (int i = 0; i < n; ++i) {
        if (rng.bernoulli(0.3)) ++heads;
    }
    EXPECT_NEAR(static_cast<double>(heads) / n, 0.3, 0.02);
}

TEST(Rng, BernoulliClampsProbability) {
    Rng rng(7);
    EXPECT_FALSE(rng.bernoulli(-1.0));
    EXPECT_TRUE(rng.bernoulli(2.0));
}

TEST(Rng, DeterministicAcrossInstances) {
    Rng a(42);
    Rng b(42);
    for (int i = 0; i < 100; ++i) {
        EXPECT_DOUBLE_EQ(a.uniform(0.0, 1.0), b.uniform(0.0, 1.0));
    }
}

TEST(Rng, SampleWithoutReplacementIsDistinctAndInRange) {
    Rng rng(8);
    const auto sample = rng.sample_without_replacement(50, 20);
    EXPECT_EQ(sample.size(), 20u);
    std::set<std::size_t> unique(sample.begin(), sample.end());
    EXPECT_EQ(unique.size(), 20u);
    for (const std::size_t s : sample) EXPECT_LT(s, 50u);
}

TEST(Rng, SampleWithoutReplacementFullSet) {
    Rng rng(9);
    const auto sample = rng.sample_without_replacement(10, 10);
    std::set<std::size_t> unique(sample.begin(), sample.end());
    EXPECT_EQ(unique.size(), 10u);
}

TEST(Rng, SampleWithoutReplacementRejectsOversizedRequest) {
    Rng rng(10);
    EXPECT_THROW(rng.sample_without_replacement(5, 6), std::invalid_argument);
}

TEST(Rng, SampleWithoutReplacementIsUnbiased) {
    // Each of 10 items should appear in a 5-sample ~half the time.
    Rng rng(11);
    std::vector<int> counts(10, 0);
    constexpr int trials = 4000;
    for (int t = 0; t < trials; ++t) {
        for (const std::size_t s : rng.sample_without_replacement(10, 5)) ++counts[s];
    }
    for (const int c : counts) {
        EXPECT_NEAR(static_cast<double>(c) / trials, 0.5, 0.04);
    }
}

TEST(Rng, SplitProducesIndependentStreams) {
    Rng parent(12);
    Rng child1 = parent.split();
    Rng child2 = parent.split();
    // Streams should differ from each other.
    bool all_equal = true;
    for (int i = 0; i < 32; ++i) {
        if (child1.uniform(0.0, 1.0) != child2.uniform(0.0, 1.0)) all_equal = false;
    }
    EXPECT_FALSE(all_equal);
}

TEST(Rng, ShufflePreservesElements) {
    Rng rng(13);
    std::vector<std::size_t> items{0, 1, 2, 3, 4, 5, 6, 7};
    auto copy = items;
    rng.shuffle(copy);
    std::sort(copy.begin(), copy.end());
    EXPECT_EQ(copy, items);
}

TEST(SplitMix64, NthOutputMatchesSequentialDraws) {
    // The k-th output is one finalize of seed + k·gamma: the identity the
    // drift kernel reads its draws by. Seeds include the wrap-around edge.
    for (const std::uint64_t seed :
         {std::uint64_t{0}, std::uint64_t{1}, std::uint64_t{0x5eedf00d},
          ~std::uint64_t{0}, derive_stream_seed(42, 7), ~SplitMix64::kGamma}) {
        SplitMix64 stream(seed);
        for (std::uint64_t k = 1; k <= 64; ++k) {
            EXPECT_EQ(SplitMix64::nth(seed, k), stream.next_u64())
                << "seed " << seed << " draw " << k;
        }
    }
    // uniform() is uniform_of() on the same draw.
    SplitMix64 a(9);
    for (std::uint64_t k = 1; k <= 16; ++k) {
        EXPECT_EQ(SplitMix64::uniform_of(SplitMix64::nth(9, k), -2.5, 4.0),
                  a.uniform(-2.5, 4.0));
    }
}

} // namespace
} // namespace fmore::stats

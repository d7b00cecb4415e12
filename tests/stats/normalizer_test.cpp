#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <vector>

#include "fmore/stats/normalizer.hpp"
#include "fmore/stats/rng.hpp"

namespace fmore::stats {
namespace {

TEST(MinMaxNormalizer, MapsRangeToUnitInterval) {
    const MinMaxNormalizer norm(1000.0, 5000.0);
    EXPECT_DOUBLE_EQ(norm.transform(1000.0), 0.0);
    EXPECT_DOUBLE_EQ(norm.transform(5000.0), 1.0);
    EXPECT_DOUBLE_EQ(norm.transform(3000.0), 0.5);
}

TEST(MinMaxNormalizer, PaperWalkthroughValues) {
    // Section III.B normalizes data in [1000, 5000] and bandwidth in
    // [5, 100]; node A's (4000, 85Mb) maps to (0.75, 80/95).
    const MinMaxNormalizer data(1000.0, 5000.0);
    const MinMaxNormalizer bw(5.0, 100.0);
    EXPECT_NEAR(data.transform(4000.0), 0.75, 1e-12);
    EXPECT_NEAR(bw.transform(85.0), 80.0 / 95.0, 1e-12);
}

TEST(MinMaxNormalizer, ClampsOutOfRange) {
    const MinMaxNormalizer norm(0.0, 10.0);
    EXPECT_DOUBLE_EQ(norm.transform(-5.0), 0.0);
    EXPECT_DOUBLE_EQ(norm.transform(15.0), 1.0);
}

TEST(MinMaxNormalizer, InverseRoundTrips) {
    const MinMaxNormalizer norm(-4.0, 6.0);
    for (double x : {-4.0, -1.0, 0.0, 3.7, 6.0}) {
        EXPECT_NEAR(norm.inverse(norm.transform(x)), x, 1e-12);
    }
}

TEST(MinMaxNormalizer, FitFromValues) {
    const auto norm = MinMaxNormalizer::fit({3.0, 9.0, 5.0, 7.0});
    EXPECT_DOUBLE_EQ(norm.lo(), 3.0);
    EXPECT_DOUBLE_EQ(norm.hi(), 9.0);
    EXPECT_DOUBLE_EQ(norm.transform(6.0), 0.5);
}

TEST(MinMaxNormalizer, FitRejectsDegenerate) {
    EXPECT_THROW(MinMaxNormalizer::fit({1.0}), std::invalid_argument);
    EXPECT_THROW(MinMaxNormalizer::fit({2.0, 2.0}), std::invalid_argument);
    EXPECT_THROW(MinMaxNormalizer(5.0, 5.0), std::invalid_argument);
}

TEST(MinMaxNormalizer, DefaultIsIdentityOnUnitInterval) {
    const MinMaxNormalizer norm;
    EXPECT_DOUBLE_EQ(norm.transform(0.3), 0.3);
}

// transform_rows leaves out the subtraction when lo is +0 and replaces the
// division by a multiply when hi - lo is a power of two with a double
// reciprocal. Both shortcuts are exact, so every row must equal the
// textbook (x - lo) / (hi - lo), clamped, in every bit: on random doubles
// of every magnitude and random bit patterns (subnormals, infinities and
// NaNs of any payload among them), plus +-0, the smallest and largest
// subnormals, +-inf, NaNs, the range's ends and their neighbours.

std::uint64_t bits(double v) { return std::bit_cast<std::uint64_t>(v); }

std::vector<double> probe_values(double lo, double hi) {
    constexpr double kInf = std::numeric_limits<double>::infinity();
    constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();
    const double sub_min = std::numeric_limits<double>::denorm_min();
    const double sub_max = std::bit_cast<double>(std::uint64_t{0x000fffffffffffffULL});
    std::vector<double> x{0.0,     -0.0,     sub_min, -sub_min, sub_max, -sub_max,
                          kInf,    -kInf,    kNaN,    -kNaN,    lo,      hi,
                          0.5 * (lo + hi),   std::nextafter(lo, -kInf),
                          std::nextafter(lo, kInf),   std::nextafter(hi, -kInf),
                          std::nextafter(hi, kInf),   std::numeric_limits<double>::min(),
                          std::numeric_limits<double>::max(), -std::numeric_limits<double>::max(),
                          std::bit_cast<double>(std::uint64_t{0x7ff0000000000001ULL}),
                          std::bit_cast<double>(std::uint64_t{0xfff80000deadbeefULL})};
    Rng rng(0x5ca1e);
    // Around the range where the draw's width is finite.
    const double span = hi - lo;
    const bool around = std::isfinite((hi + span) - (lo - span));
    for (int i = 0; i < 4000; ++i) {
        if (around) x.push_back(rng.uniform(lo - span, hi + span));
        x.push_back(std::ldexp(rng.uniform(-1.0, 1.0),
                               static_cast<int>(rng.uniform(-1080.0, 1030.0))));
        x.push_back(std::bit_cast<double>(rng.engine()()));
    }
    return x;
}

void expect_transform_rows_exact(const MinMaxNormalizer& norm) {
    const double lo = norm.lo();
    const double hi = norm.hi();
    const std::vector<double> x = probe_values(lo, hi);
    std::vector<double> y(x.size(), -1.0);
    norm.transform_rows(x.data(), x.size(), [&](std::size_t r, double v) { y[r] = v; });
    std::size_t mismatches = 0;
    for (std::size_t r = 0; r < x.size(); ++r) {
        const double want = std::clamp((x[r] - lo) / (hi - lo), 0.0, 1.0);
        EXPECT_EQ(bits(norm.transform(x[r])), bits(want));
        if (bits(y[r]) != bits(want) && mismatches++ < 3)
            ADD_FAILURE() << "[" << lo << ", " << hi << "] x = " << x[r] << " (bits " << std::hex
                          << bits(x[r]) << "): transform_rows " << bits(y[r]) << ", want "
                          << bits(want) << std::dec;
    }
    EXPECT_EQ(mismatches, 0u) << "[" << lo << ", " << hi << "]";
}

TEST(NormalizerRows, PowerOfTwoSpansMultiplyExactly) {
    for (const double span :
         {1.0, 2.0, 0.5, std::ldexp(1.0, 40), std::ldexp(1.0, -40), std::ldexp(1.0, 1023)}) {
        for (const double lo : {0.0, -0.0, -3.0, 5.0}) {
            const double hi = lo + span;
            if (!std::isfinite(hi)) continue;
            ASSERT_EQ(hi - lo, span) << "lo " << lo << ", span " << span;
            expect_transform_rows_exact(MinMaxNormalizer(lo, hi));
        }
    }
    expect_transform_rows_exact(MinMaxNormalizer());
}

TEST(NormalizerRows, OtherSpansKeepTheDivision) {
    // 150 and 3 have no exact reciprocal; a subnormal power of two's
    // reciprocal overflows and an overflowed span is +inf.
    for (const double span : {150.0, 3.0, 0.1, std::ldexp(1.0, -1070)}) {
        for (const double lo : {0.0, -0.0, -3.0, 5.0}) {
            const double hi = lo + span;
            if (!(hi > lo)) continue;
            expect_transform_rows_exact(MinMaxNormalizer(lo, hi));
        }
    }
    const double big = std::numeric_limits<double>::max();
    expect_transform_rows_exact(MinMaxNormalizer(-big, big));
}

} // namespace
} // namespace fmore::stats

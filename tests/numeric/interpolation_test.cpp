#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <string>
#include <vector>

#include "fmore/numeric/interpolation.hpp"

namespace fmore::numeric {
namespace {

TEST(LinearInterpolator, ExactAtKnots) {
    const LinearInterpolator f({0.0, 1.0, 2.0}, {5.0, 7.0, 4.0});
    EXPECT_DOUBLE_EQ(f(0.0), 5.0);
    EXPECT_DOUBLE_EQ(f(1.0), 7.0);
    EXPECT_DOUBLE_EQ(f(2.0), 4.0);
}

TEST(LinearInterpolator, MidpointsAreAverages) {
    const LinearInterpolator f({0.0, 2.0}, {0.0, 10.0});
    EXPECT_DOUBLE_EQ(f(1.0), 5.0);
    EXPECT_DOUBLE_EQ(f(0.5), 2.5);
}

TEST(LinearInterpolator, ClampsOutsideRange) {
    const LinearInterpolator f({0.0, 1.0}, {3.0, 8.0});
    EXPECT_DOUBLE_EQ(f(-1.0), 3.0);
    EXPECT_DOUBLE_EQ(f(2.0), 8.0);
}

TEST(LinearInterpolator, RejectsBadKnots) {
    EXPECT_THROW(LinearInterpolator({0.0}, {1.0}), std::invalid_argument);
    EXPECT_THROW(LinearInterpolator({0.0, 0.0}, {1.0, 2.0}), std::invalid_argument);
    EXPECT_THROW(LinearInterpolator({1.0, 0.0}, {1.0, 2.0}), std::invalid_argument);
    EXPECT_THROW(LinearInterpolator({0.0, 1.0}, {1.0}), std::invalid_argument);
}

TEST(InverseOf, InvertsIncreasingFunction) {
    const std::vector<double> xs{0.0, 1.0, 2.0, 3.0};
    const std::vector<double> ys{1.0, 3.0, 7.0, 15.0};
    const auto inv = LinearInterpolator::inverse_of(xs, ys);
    EXPECT_DOUBLE_EQ(inv(1.0), 0.0);
    EXPECT_DOUBLE_EQ(inv(15.0), 3.0);
    EXPECT_DOUBLE_EQ(inv(5.0), 1.5);
}

TEST(InverseOf, InvertsDecreasingFunction) {
    // The equilibrium solver inverts the decreasing map theta -> u0(theta).
    const std::vector<double> xs{0.5, 1.0, 1.5};
    const std::vector<double> ys{21.0, 17.0, 13.0};
    const auto inv = LinearInterpolator::inverse_of(xs, ys);
    EXPECT_DOUBLE_EQ(inv(21.0), 0.5);
    EXPECT_DOUBLE_EQ(inv(13.0), 1.5);
    EXPECT_NEAR(inv(17.0), 1.0, 1e-12);
    EXPECT_NEAR(inv(15.0), 1.25, 1e-12);
}

TEST(InverseOf, CollapsesPlateaus) {
    // A flat stretch (equal u0 for neighbouring thetas after the isotonic
    // cleanup) must not break inversion.
    const std::vector<double> xs{0.0, 1.0, 2.0, 3.0};
    const std::vector<double> ys{10.0, 8.0, 8.0, 5.0};
    const auto inv = LinearInterpolator::inverse_of(xs, ys);
    EXPECT_DOUBLE_EQ(inv(10.0), 0.0);
    EXPECT_DOUBLE_EQ(inv(5.0), 3.0);
}

TEST(InverseOf, RejectsNonMonotone) {
    const std::vector<double> xs{0.0, 1.0, 2.0};
    const std::vector<double> ys{0.0, 2.0, 1.0};
    EXPECT_THROW(LinearInterpolator::inverse_of(xs, ys), std::invalid_argument);
}

TEST(InverseOf, RoundTripsThroughForwardMap) {
    const std::vector<double> xs{0.0, 0.5, 1.0, 1.5, 2.0};
    const std::vector<double> ys{0.0, 0.25, 1.0, 2.25, 4.0}; // y = x^2 sampled
    const LinearInterpolator fwd(xs, ys);
    const auto inv = LinearInterpolator::inverse_of(xs, ys);
    for (double x = 0.0; x <= 2.0; x += 0.25) {
        EXPECT_NEAR(inv(fwd(x)), x, 1e-12);
    }
}

std::uint64_t bits(double v) { return std::bit_cast<std::uint64_t>(v); }

/// Probe points for a knot grid: every knot, 1 and 2 ulp either side of
/// each, segment midpoints, both ends and points beyond them, -0, +0, NaN
/// and +-inf.
std::vector<double> probes(const std::vector<double>& xs) {
    std::vector<double> x{xs.front() - 1.0, -0.0, 0.0, std::nan(""), INFINITY, -INFINITY};
    for (std::size_t i = 0; i < xs.size(); ++i) {
        double below = xs[i];
        double above = xs[i];
        x.push_back(xs[i]);
        for (int ulp = 0; ulp < 2; ++ulp) {
            below = std::nextafter(below, -INFINITY);
            above = std::nextafter(above, INFINITY);
            x.push_back(below);
            x.push_back(above);
        }
        if (i + 1 < xs.size()) x.push_back(0.5 * (xs[i] + xs[i + 1]));
    }
    x.push_back(xs.back() + 1.0);
    return x;
}

/// One `weight_rows` on the family's first member, then `lerp_rows` for
/// every member, over `x`, against the scalar calls: the segment is
/// `segment_for`'s (and `upper_bound`'s) and the weight eval_segment's for
/// every row inside the knots, and each member's value is its operator()
/// and, inside, eval_segment(segment_for(x), x), bit for bit.
void expect_rows_match_scalar(const std::vector<LinearInterpolator>& family,
                              const std::vector<double>& x) {
    const LinearInterpolator& f = family.front();
    const std::vector<double>& xs = f.xs();
    std::vector<std::int32_t> hi(x.size());
    std::vector<double> t(x.size());
    std::vector<double> y(x.size());
    f.weight_rows(x.data(), x.size(), hi.data(), t.data());
    for (std::size_t r = 0; r < x.size(); ++r) {
        if (std::isnan(x[r])) {
            EXPECT_TRUE(std::isnan(t[r])) << "row " << r;
        }
        if (!(x[r] > f.x_min() && x[r] < f.x_max())) continue;
        const std::size_t exact = static_cast<std::size_t>(
            std::upper_bound(xs.begin(), xs.end(), x[r]) - xs.begin());
        ASSERT_EQ(static_cast<std::size_t>(hi[r]), exact) << "x = " << x[r];
        ASSERT_EQ(exact, f.segment_for(x[r])) << "x = " << x[r];
        const double weight = (x[r] - xs[exact - 1]) / (xs[exact] - xs[exact - 1]);
        EXPECT_EQ(bits(t[r]), bits(weight)) << "x = " << x[r];
    }
    for (const LinearInterpolator& member : family) {
        member.lerp_rows(hi.data(), t.data(), x.data(), x.size(), y.data());
        for (std::size_t r = 0; r < x.size(); ++r) {
            EXPECT_EQ(bits(y[r]), bits(member(x[r]))) << "x = " << x[r];
            if (x[r] > f.x_min() && x[r] < f.x_max()) {
                EXPECT_EQ(bits(y[r]), bits(member.eval_segment(f.segment_for(x[r]), x[r])))
                    << "x = " << x[r];
            }
        }
    }
}

/// `count` curves on the knots `xs`, each with its own values.
std::vector<LinearInterpolator> family_on(const std::vector<double>& xs, std::size_t count) {
    std::vector<LinearInterpolator> family;
    for (std::size_t c = 0; c < count; ++c) {
        std::vector<double> ys;
        for (std::size_t i = 0; i < xs.size(); ++i) {
            const double v = std::sin(0.37 * static_cast<double>(i) + static_cast<double>(c))
                             * (40.0 + static_cast<double>(c));
            ys.push_back(i == 0 && c == 0 ? -0.0 : v);
        }
        family.emplace_back(xs, std::move(ys));
    }
    return family;
}

/// Uniform: the vector guess path (129 knots, the solver's theta grid).
std::vector<double> uniform_knots() {
    std::vector<double> xs;
    for (int i = 0; i <= 128; ++i) xs.push_back(0.5 + static_cast<double>(i) / 128.0);
    return xs;
}

/// The solver's score grid: lo + (hi - lo) * i / 512 between ends that are
/// not round numbers.
std::vector<double> score_knots() {
    const double lo = 0.3141592653589793;
    const double hi = 21.718281828459045;
    std::vector<double> xs;
    for (int i = 0; i <= 512; ++i)
        xs.push_back(lo + (hi - lo) * static_cast<double>(i) / 512.0);
    return xs;
}

/// Non-uniform: the binary-search path.
std::vector<double> sparse_knots() {
    std::vector<double> xs;
    for (int i = 0; i < 40; ++i) xs.push_back(-3.0 + 0.01 * i * i);
    return xs;
}

/// Inside the uniformity tolerance (1e-9 relative to the largest end, here
/// 1e-6 absolute), yet every knot sits 5e-7 off its linspace position,
/// alternating sides: points near the knots get an index guess one
/// segment off, so the fix-up walks run in both directions.
std::vector<double> wobbly_knots() {
    std::vector<double> xs;
    for (int i = 0; i <= 100; ++i) {
        const double offset = (i == 0 || i == 100) ? 0.0 : (i % 2 == 0 ? 5e-7 : -5e-7);
        xs.push_back(10.0 * i + offset);
    }
    return xs;
}

TEST(LinearInterpolator, RowEvalMatchesOperator) {
    const std::vector<double> uniform = uniform_knots();
    expect_rows_match_scalar(family_on(uniform, 1), probes(uniform));
    const std::vector<double> sparse = sparse_knots();
    expect_rows_match_scalar(family_on(sparse, 1), probes(sparse));

    const std::vector<double> wobbly = wobbly_knots();
    const double step = 1000.0 / 100.0;
    const double tolerance = 1e-9 * 1000.0;
    std::size_t off_guesses = 0;
    for (std::size_t i = 1; i + 1 < wobbly.size(); ++i) {
        ASSERT_LE(std::abs(wobbly[i] - static_cast<double>(i) * step), tolerance);
        for (const double x : {std::nextafter(wobbly[i], -INFINITY), wobbly[i]}) {
            const std::size_t guess = static_cast<std::size_t>(x * (1.0 / step)) + 1;
            const std::size_t exact = static_cast<std::size_t>(
                std::upper_bound(wobbly.begin(), wobbly.end(), x) - wobbly.begin());
            off_guesses += guess != exact ? 1 : 0;
        }
    }
    ASSERT_GT(off_guesses, 50u) << "the grid must force fix-ups";
    expect_rows_match_scalar(family_on(wobbly, 1), probes(wobbly));
}

TEST(LinearInterpolator, NaNGetsASegmentInRange) {
    // operator() passes a NaN on to segment_for: on the uniform grid the
    // guess must not convert the NaN to an integer, on the non-uniform one
    // the search must not return the end, one past the last knot.
    for (const std::vector<double>& xs : {uniform_knots(), sparse_knots()}) {
        const LinearInterpolator f = family_on(xs, 1).front();
        const double nan = std::nan("");
        const std::size_t hi = f.segment_for(nan);
        EXPECT_GE(hi, 1u);
        EXPECT_LE(hi, xs.size() - 1);
        EXPECT_TRUE(std::isnan(f(nan)));
        EXPECT_TRUE(std::isnan(f.eval_segment(hi, nan)));
    }
}

TEST(LinearInterpolator, WeightRowsMatchScalarLookupAtEveryBlockLength) {
    // Every block length from 1 to 257 (the vector loops' remainders and a
    // length past one 256-row block) and families of 1 to 4 curves sharing
    // a grid, the probes rotated so each lands in different lanes.
    const std::vector<std::vector<double>> grids{uniform_knots(), score_knots(),
                                                 sparse_knots(), wobbly_knots(),
                                                 {-1.0, 2.0}};
    const char* names[] = {"uniform", "score grid", "non-uniform", "wobbly uniform",
                           "two knots"};
    for (std::size_t g = 0; g < grids.size(); ++g) {
        const std::vector<double> all = probes(grids[g]);
        for (std::size_t curves = 1; curves <= 4; ++curves) {
            const std::vector<LinearInterpolator> family = family_on(grids[g], curves);
            for (std::size_t length = 1; length <= 257; ++length) {
                SCOPED_TRACE(std::string(names[g]) + ", " + std::to_string(curves)
                             + " curves, " + std::to_string(length) + " rows");
                std::vector<double> x(length);
                for (std::size_t r = 0; r < length; ++r)
                    x[r] = all[(length * 7 + r) % all.size()];
                expect_rows_match_scalar(family, x);
                if (testing::Test::HasFailure()) return;
            }
        }
    }
}

} // namespace
} // namespace fmore::numeric

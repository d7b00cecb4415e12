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

/// Row twins against the scalar calls, over every knot, points just
/// either side of each knot, segment midpoints and both clamped ends.
void expect_rows_match_scalar(const LinearInterpolator& f, const std::string& grid) {
    SCOPED_TRACE(grid);
    const std::vector<double>& xs = f.xs();
    std::vector<double> x{xs.front() - 1.0, -0.0, 0.0};
    for (std::size_t i = 0; i < xs.size(); ++i) {
        x.push_back(xs[i]);
        x.push_back(std::nextafter(xs[i], -INFINITY));
        x.push_back(std::nextafter(xs[i], INFINITY));
        if (i + 1 < xs.size()) x.push_back(0.5 * (xs[i] + xs[i + 1]));
    }
    x.push_back(xs.back() + 1.0);
    std::vector<std::size_t> hi(x.size());
    std::vector<double> y(x.size());
    f.segment_rows(x.data(), x.size(), hi.data());
    f.eval_rows(hi.data(), x.data(), x.size(), y.data());
    for (std::size_t r = 0; r < x.size(); ++r) {
        if (x[r] > f.x_min() && x[r] < f.x_max()) {
            const std::size_t exact = static_cast<std::size_t>(
                std::upper_bound(xs.begin(), xs.end(), x[r]) - xs.begin());
            EXPECT_EQ(hi[r], exact) << "x = " << x[r];
            EXPECT_EQ(hi[r], f.segment_for(x[r])) << "x = " << x[r];
            EXPECT_EQ(std::bit_cast<std::uint64_t>(f.eval_segment(hi[r], x[r])),
                      std::bit_cast<std::uint64_t>(y[r]))
                << "x = " << x[r];
        }
        EXPECT_EQ(std::bit_cast<std::uint64_t>(f(x[r])), std::bit_cast<std::uint64_t>(y[r]))
            << "x = " << x[r];
    }
}

TEST(LinearInterpolator, RowEvalMatchesOperator) {
    // Uniform: the O(1) guess path. Values include -0 at the left end.
    std::vector<double> uniform_x;
    std::vector<double> uniform_y;
    for (int i = 0; i <= 128; ++i) {
        uniform_x.push_back(0.5 + static_cast<double>(i) / 128.0);
        uniform_y.push_back(i == 0 ? -0.0 : std::sin(0.37 * i) * 40.0);
    }
    expect_rows_match_scalar(LinearInterpolator(uniform_x, uniform_y), "uniform");

    // Non-uniform: the binary-search path.
    std::vector<double> sparse_x;
    std::vector<double> sparse_y;
    for (int i = 0; i < 40; ++i) {
        sparse_x.push_back(-3.0 + 0.01 * i * i);
        sparse_y.push_back(std::cos(0.2 * i) - 0.5);
    }
    expect_rows_match_scalar(LinearInterpolator(sparse_x, sparse_y), "non-uniform");

    // Inside the uniformity tolerance (1e-9 relative to the largest end,
    // here 1e-6 absolute), yet every knot sits 5e-7 off its linspace
    // position, alternating sides: points near the knots get an index
    // guess one segment off, so the fix-up walks run in both directions.
    std::vector<double> wobbly_x;
    std::vector<double> wobbly_y;
    for (int i = 0; i <= 100; ++i) {
        const double offset = (i == 0 || i == 100) ? 0.0 : (i % 2 == 0 ? 5e-7 : -5e-7);
        wobbly_x.push_back(10.0 * i + offset);
        wobbly_y.push_back(std::sqrt(1.0 + i));
    }
    const double step = 1000.0 / 100.0;
    const double tolerance = 1e-9 * 1000.0;
    std::size_t off_guesses = 0;
    for (std::size_t i = 1; i + 1 < wobbly_x.size(); ++i) {
        ASSERT_LE(std::abs(wobbly_x[i] - static_cast<double>(i) * step), tolerance);
        for (const double x : {std::nextafter(wobbly_x[i], -INFINITY), wobbly_x[i]}) {
            const std::size_t guess = static_cast<std::size_t>(x * (1.0 / step)) + 1;
            const std::size_t exact = static_cast<std::size_t>(
                std::upper_bound(wobbly_x.begin(), wobbly_x.end(), x) - wobbly_x.begin());
            off_guesses += guess != exact ? 1 : 0;
        }
    }
    ASSERT_GT(off_guesses, 50u) << "the grid must force fix-ups";
    expect_rows_match_scalar(LinearInterpolator(wobbly_x, wobbly_y), "wobbly uniform");
}

} // namespace
} // namespace fmore::numeric

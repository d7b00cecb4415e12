#include <gtest/gtest.h>

#include <cmath>

#include "fmore/numeric/quadrature.hpp"
#include "fmore/reference/numeric.hpp"

namespace fmore::numeric {
namespace {

using reference::simpson;

TEST(Trapezoid, ExactOnLinear) {
    const Integrand f = [](double x) { return 3.0 * x + 1.0; };
    EXPECT_NEAR(trapezoid(f, 0.0, 2.0, 4), 8.0, 1e-12);
}

TEST(Trapezoid, ConvergesOnSmooth) {
    const Integrand f = [](double x) { return std::sin(x); };
    EXPECT_NEAR(trapezoid(f, 0.0, M_PI, 2000), 2.0, 1e-5);
}

TEST(Trapezoid, SignedWhenReversed) {
    const Integrand f = [](double) { return 1.0; };
    EXPECT_NEAR(trapezoid(f, 1.0, 0.0, 10), -1.0, 1e-12);
}

TEST(Simpson, ExactOnCubic) {
    const Integrand f = [](double x) { return x * x * x - 2.0 * x; };
    // integral over [0,2] = 4 - 4 = 0.
    EXPECT_NEAR(simpson(f, 0.0, 2.0, 2), 0.0, 1e-12);
}

TEST(Simpson, OddPanelCountRoundedUp) {
    const Integrand f = [](double x) { return x * x; };
    EXPECT_NEAR(simpson(f, 0.0, 3.0, 3), 9.0, 1e-12);
}

TEST(Simpson, BeatsTrapezoidOnSmooth) {
    const Integrand f = [](double x) { return std::exp(x); };
    const double truth = std::exp(1.0) - 1.0;
    const double ts = std::fabs(trapezoid(f, 0.0, 1.0, 16) - truth);
    const double ss = std::fabs(simpson(f, 0.0, 1.0, 16) - truth);
    EXPECT_LT(ss, ts);
}

TEST(TabulatedTrapezoid, MatchesFunctionForm) {
    std::vector<double> xs;
    std::vector<double> ys;
    for (int i = 0; i <= 100; ++i) {
        const double x = i / 100.0;
        xs.push_back(x);
        ys.push_back(x * x);
    }
    EXPECT_NEAR(trapezoid_tabulated(xs, ys), 1.0 / 3.0, 1e-4);
}

TEST(TabulatedTrapezoid, HandlesNonUniformGrid) {
    const std::vector<double> xs{0.0, 0.1, 0.5, 1.0};
    const std::vector<double> ys{0.0, 0.1, 0.5, 1.0}; // y = x
    EXPECT_NEAR(trapezoid_tabulated(xs, ys), 0.5, 1e-12);
}

TEST(TabulatedTrapezoid, RejectsBadInput) {
    EXPECT_THROW(trapezoid_tabulated({0.0}, {1.0}), std::invalid_argument);
    EXPECT_THROW(trapezoid_tabulated({0.0, 1.0}, {1.0}), std::invalid_argument);
}

TEST(CumulativeTrapezoid, PrefixSumsMatch) {
    const std::vector<double> xs{0.0, 1.0, 2.0, 3.0};
    const std::vector<double> ys{1.0, 1.0, 1.0, 1.0};
    const auto cum = cumulative_trapezoid(xs, ys);
    ASSERT_EQ(cum.size(), 4u);
    EXPECT_DOUBLE_EQ(cum[0], 0.0);
    EXPECT_DOUBLE_EQ(cum[1], 1.0);
    EXPECT_DOUBLE_EQ(cum[3], 3.0);
}

TEST(CumulativeTrapezoid, LastEntryEqualsFullIntegral) {
    std::vector<double> xs;
    std::vector<double> ys;
    for (int i = 0; i <= 64; ++i) {
        xs.push_back(i / 64.0);
        ys.push_back(std::cos(xs.back()));
    }
    const auto cum = cumulative_trapezoid(xs, ys);
    EXPECT_NEAR(cum.back(), trapezoid_tabulated(xs, ys), 1e-14);
}

} // namespace
} // namespace fmore::numeric

#include <gtest/gtest.h>

#include <memory>

#include "fmore/stats/distributions.hpp"
#include "fmore/reference/distributions.hpp"

namespace fmore::stats {
namespace {

using reference::ScaledBetaDistribution;
using reference::TruncatedNormalDistribution;

TEST(UniformDistribution, CdfEndpointsAndMidpoint) {
    const UniformDistribution u(2.0, 6.0);
    EXPECT_DOUBLE_EQ(u.cdf(2.0), 0.0);
    EXPECT_DOUBLE_EQ(u.cdf(6.0), 1.0);
    EXPECT_DOUBLE_EQ(u.cdf(4.0), 0.5);
    EXPECT_DOUBLE_EQ(u.cdf(0.0), 0.0);
    EXPECT_DOUBLE_EQ(u.cdf(9.0), 1.0);
}

TEST(UniformDistribution, PdfIsConstantInside) {
    const UniformDistribution u(0.0, 4.0);
    EXPECT_DOUBLE_EQ(u.pdf(1.0), 0.25);
    EXPECT_DOUBLE_EQ(u.pdf(3.9), 0.25);
    EXPECT_DOUBLE_EQ(u.pdf(-0.1), 0.0);
    EXPECT_DOUBLE_EQ(u.pdf(4.1), 0.0);
}

TEST(UniformDistribution, QuantileInvertsCdf) {
    const UniformDistribution u(1.0, 3.0);
    for (double p : {0.0, 0.25, 0.5, 0.9, 1.0}) {
        EXPECT_NEAR(u.cdf(u.quantile(p)), p, 1e-12);
    }
}

TEST(UniformDistribution, RejectsEmptySupport) {
    EXPECT_THROW(UniformDistribution(1.0, 1.0), std::invalid_argument);
    EXPECT_THROW(UniformDistribution(2.0, 1.0), std::invalid_argument);
}

TEST(UniformDistribution, SamplesStayInSupport) {
    const UniformDistribution u(0.5, 1.5);
    Rng rng(3);
    for (int i = 0; i < 500; ++i) {
        const double x = u.sample(rng);
        EXPECT_GE(x, 0.5);
        EXPECT_LE(x, 1.5);
    }
}

TEST(TruncatedNormal, CdfMonotoneAndNormalized) {
    const TruncatedNormalDistribution t(1.0, 0.5, 0.5, 1.5);
    EXPECT_DOUBLE_EQ(t.cdf(0.5), 0.0);
    EXPECT_DOUBLE_EQ(t.cdf(1.5), 1.0);
    double prev = 0.0;
    for (double x = 0.5; x <= 1.5; x += 0.05) {
        const double c = t.cdf(x);
        EXPECT_GE(c, prev - 1e-12);
        prev = c;
    }
}

TEST(TruncatedNormal, SymmetricCaseHasMedianAtMean) {
    const TruncatedNormalDistribution t(1.0, 0.4, 0.0, 2.0);
    EXPECT_NEAR(t.cdf(1.0), 0.5, 1e-9);
    EXPECT_NEAR(t.quantile(0.5), 1.0, 1e-6);
}

TEST(TruncatedNormal, PdfIntegratesToOne) {
    const TruncatedNormalDistribution t(0.8, 0.3, 0.5, 1.5);
    double integral = 0.0;
    constexpr int n = 4000;
    for (int i = 0; i < n; ++i) {
        const double x = 0.5 + (i + 0.5) / n;
        integral += t.pdf(x) / n;
    }
    EXPECT_NEAR(integral, 1.0, 1e-4);
}

TEST(TruncatedNormal, RejectsBadParameters) {
    EXPECT_THROW(TruncatedNormalDistribution(0.0, 0.0, 0.0, 1.0), std::invalid_argument);
    EXPECT_THROW(TruncatedNormalDistribution(0.0, 1.0, 2.0, 1.0), std::invalid_argument);
}

TEST(ScaledBeta, UniformSpecialCase) {
    // Beta(1,1) is uniform: CDF should be linear.
    const ScaledBetaDistribution b(1.0, 1.0, 0.0, 2.0);
    EXPECT_NEAR(b.cdf(0.5), 0.25, 1e-9);
    EXPECT_NEAR(b.cdf(1.0), 0.50, 1e-9);
    EXPECT_NEAR(b.cdf(1.5), 0.75, 1e-9);
}

TEST(ScaledBeta, SkewedMassLocation) {
    // Beta(2,5) has most mass below the midpoint.
    const ScaledBetaDistribution b(2.0, 5.0, 0.0, 1.0);
    EXPECT_GT(b.cdf(0.5), 0.85);
    // Beta(5,2) mirrors it.
    const ScaledBetaDistribution c(5.0, 2.0, 0.0, 1.0);
    EXPECT_LT(c.cdf(0.5), 0.15);
}

TEST(ScaledBeta, QuantileInvertsCdf) {
    const ScaledBetaDistribution b(2.5, 3.5, 1.0, 4.0);
    for (double p : {0.05, 0.3, 0.5, 0.7, 0.95}) {
        EXPECT_NEAR(b.cdf(b.quantile(p)), p, 1e-6);
    }
}

TEST(ScaledBeta, PdfIntegratesToOne) {
    const ScaledBetaDistribution b(3.0, 2.0, 0.0, 5.0);
    double integral = 0.0;
    constexpr int n = 5000;
    for (int i = 0; i < n; ++i) {
        const double x = (i + 0.5) * 5.0 / n;
        integral += b.pdf(x) * 5.0 / n;
    }
    EXPECT_NEAR(integral, 1.0, 1e-3);
}

TEST(ScaledBeta, RejectsBadShapes) {
    EXPECT_THROW(ScaledBetaDistribution(0.0, 1.0, 0.0, 1.0), std::invalid_argument);
    EXPECT_THROW(ScaledBetaDistribution(1.0, -1.0, 0.0, 1.0), std::invalid_argument);
}

// The theta model assumptions of the paper: positive density over a bounded
// support [theta_lo, theta_hi] with 0 < theta_lo < theta_hi < inf.
TEST(DistributionContract, AllFamiliesHavePositiveDensityInside) {
    std::vector<std::unique_ptr<Distribution>> dists;
    dists.push_back(std::make_unique<UniformDistribution>(0.5, 1.5));
    dists.push_back(std::make_unique<TruncatedNormalDistribution>(1.0, 0.4, 0.5, 1.5));
    dists.push_back(std::make_unique<ScaledBetaDistribution>(2.0, 2.0, 0.5, 1.5));
    for (const auto& d : dists) {
        for (double x = 0.55; x < 1.5; x += 0.1) {
            EXPECT_GT(d->pdf(x), 0.0);
        }
        EXPECT_LT(d->support_lo(), d->support_hi());
    }
}

} // namespace
} // namespace fmore::stats

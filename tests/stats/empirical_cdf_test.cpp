#include <gtest/gtest.h>

#include "fmore/reference/distributions.hpp"

namespace fmore::stats {
namespace {

using reference::EmpiricalCdf;

TEST(EmpiricalCdf, EndpointsAndMonotonicity) {
    const EmpiricalCdf ecdf({3.0, 1.0, 2.0, 4.0});
    EXPECT_DOUBLE_EQ(ecdf.cdf(1.0), 0.0);
    EXPECT_DOUBLE_EQ(ecdf.cdf(4.0), 1.0);
    double prev = 0.0;
    for (double x = 1.0; x <= 4.0; x += 0.1) {
        const double c = ecdf.cdf(x);
        EXPECT_GE(c, prev - 1e-12);
        prev = c;
    }
}

TEST(EmpiricalCdf, InterpolatesBetweenOrderStatistics) {
    const EmpiricalCdf ecdf({0.0, 1.0, 2.0});
    EXPECT_NEAR(ecdf.cdf(0.5), 0.25, 1e-12);
    EXPECT_NEAR(ecdf.cdf(1.5), 0.75, 1e-12);
}

TEST(EmpiricalCdf, QuantileRoundTrip) {
    const EmpiricalCdf ecdf({0.5, 0.8, 1.1, 1.4, 1.5});
    for (double p : {0.0, 0.2, 0.5, 0.8, 1.0}) {
        EXPECT_NEAR(ecdf.cdf(ecdf.quantile(p)), p, 1e-9);
    }
}

TEST(EmpiricalCdf, RejectsDegenerateInput) {
    EXPECT_THROW(EmpiricalCdf({1.0}), std::invalid_argument);
    EXPECT_THROW(EmpiricalCdf({2.0, 2.0, 2.0}), std::invalid_argument);
}

TEST(EmpiricalCdf, ConvergesToTrueDistribution) {
    // The paper has nodes learn F(theta) from history; with more history the
    // learned CDF should approach the truth (Glivenko-Cantelli).
    const UniformDistribution truth(0.5, 1.5);
    Rng rng(17);
    auto draw = [&](std::size_t n) {
        std::vector<double> xs(n);
        for (double& x : xs) x = truth.sample(rng);
        return EmpiricalCdf(xs).ks_distance(truth);
    };
    const double d_small = draw(50);
    const double d_large = draw(5000);
    EXPECT_LT(d_large, d_small);
    EXPECT_LT(d_large, 0.05);
}

TEST(EmpiricalCdf, PdfIsPiecewiseDensity) {
    const EmpiricalCdf ecdf({0.0, 1.0, 3.0});
    // Two gaps of width 1 and 2, each carrying probability mass 1/2.
    EXPECT_NEAR(ecdf.pdf(0.5), 0.5, 1e-12);
    EXPECT_NEAR(ecdf.pdf(2.0), 0.25, 1e-12);
    EXPECT_DOUBLE_EQ(ecdf.pdf(-1.0), 0.0);
    EXPECT_DOUBLE_EQ(ecdf.pdf(4.0), 0.0);
}

TEST(EmpiricalCdf, WorksAsThetaModelSupport) {
    const EmpiricalCdf ecdf({0.6, 0.8, 1.0, 1.2, 1.4});
    EXPECT_DOUBLE_EQ(ecdf.support_lo(), 0.6);
    EXPECT_DOUBLE_EQ(ecdf.support_hi(), 1.4);
    EXPECT_EQ(ecdf.sample_count(), 5u);
}

} // namespace
} // namespace fmore::stats

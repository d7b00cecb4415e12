#include <gtest/gtest.h>

#include "fmore/reference/summary.hpp"

namespace fmore::reference {
namespace {

TEST(RunningSummary, BasicMoments) {
    RunningSummary s;
    for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.add(x);
    EXPECT_EQ(s.count(), 8u);
    EXPECT_DOUBLE_EQ(s.mean(), 5.0);
    EXPECT_NEAR(s.variance(), 32.0 / 7.0, 1e-12);
    EXPECT_DOUBLE_EQ(s.min(), 2.0);
    EXPECT_DOUBLE_EQ(s.max(), 9.0);
}

TEST(RunningSummary, SingleValue) {
    RunningSummary s;
    s.add(3.5);
    EXPECT_DOUBLE_EQ(s.mean(), 3.5);
    EXPECT_DOUBLE_EQ(s.variance(), 0.0);
    EXPECT_DOUBLE_EQ(s.stddev(), 0.0);
}

TEST(RunningSummary, EmptyThrows) {
    const RunningSummary s;
    EXPECT_THROW((void)s.mean(), std::logic_error);
    EXPECT_THROW((void)s.min(), std::logic_error);
    EXPECT_THROW((void)s.max(), std::logic_error);
}

TEST(BatchStats, MeanAndStddev) {
    const std::vector<double> xs{1.0, 2.0, 3.0, 4.0};
    EXPECT_DOUBLE_EQ(mean(xs), 2.5);
    EXPECT_NEAR(stddev(xs), 1.2909944487358056, 1e-12);
    EXPECT_THROW(mean({}), std::invalid_argument);
}

TEST(BatchStats, PercentileInterpolates) {
    std::vector<double> xs{10.0, 20.0, 30.0, 40.0, 50.0};
    EXPECT_DOUBLE_EQ(percentile(xs, 0.0), 10.0);
    EXPECT_DOUBLE_EQ(percentile(xs, 50.0), 30.0);
    EXPECT_DOUBLE_EQ(percentile(xs, 100.0), 50.0);
    EXPECT_DOUBLE_EQ(percentile(xs, 25.0), 20.0);
    EXPECT_DOUBLE_EQ(percentile(xs, 12.5), 15.0);
}

TEST(BatchStats, PercentileUnsortedInput) {
    std::vector<double> xs{50.0, 10.0, 30.0, 20.0, 40.0};
    EXPECT_DOUBLE_EQ(percentile(xs, 50.0), 30.0);
}

} // namespace
} // namespace fmore::reference

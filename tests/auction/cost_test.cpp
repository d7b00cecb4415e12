#include <gtest/gtest.h>

#include "fmore/auction/cost.hpp"
#include "fmore/reference/cost.hpp"

namespace fmore::auction {
namespace {

using reference::PowerCost;
using reference::QuadraticCost;

TEST(AdditiveCost, LinearInQualityAndTheta) {
    const AdditiveCost c({2.0, 3.0});
    EXPECT_DOUBLE_EQ(c.cost({1.0, 1.0}, 1.0), 5.0);
    EXPECT_DOUBLE_EQ(c.cost({1.0, 1.0}, 2.0), 10.0);
    EXPECT_DOUBLE_EQ(c.cost({2.0, 0.0}, 0.5), 2.0);
}

TEST(AdditiveCost, ThetaDerivativeIsResourceBundleValue) {
    const AdditiveCost c({2.0, 3.0});
    EXPECT_DOUBLE_EQ(c.cost_theta_derivative({1.0, 2.0}, 0.7), 8.0);
}

TEST(QuadraticCost, ConvexInQuality) {
    const QuadraticCost c({1.0});
    EXPECT_DOUBLE_EQ(c.cost({2.0}, 1.0), 4.0);
    EXPECT_DOUBLE_EQ(c.cost({3.0}, 1.0), 9.0);
    // Midpoint cost below average of endpoints (strict convexity).
    EXPECT_LT(c.cost({2.5}, 1.0), 0.5 * (4.0 + 9.0));
}

TEST(PowerCost, GammaOneMatchesAdditive) {
    const PowerCost p({2.0, 3.0}, 1.0);
    const AdditiveCost a({2.0, 3.0});
    EXPECT_NEAR(p.cost({0.4, 0.9}, 1.3), a.cost({0.4, 0.9}, 1.3), 1e-12);
}

TEST(PowerCost, RejectsBadGammaAndNegativeQuality) {
    EXPECT_THROW(PowerCost({1.0}, 0.5), std::invalid_argument);
    const PowerCost p({1.0}, 2.0);
    EXPECT_THROW((void)p.cost({-1.0}, 1.0), std::domain_error);
}

TEST(CostModels, RejectDimensionMismatch) {
    const AdditiveCost c({1.0, 1.0});
    EXPECT_THROW((void)c.cost({1.0}, 1.0), std::invalid_argument);
    EXPECT_THROW(AdditiveCost({}), std::invalid_argument);
    EXPECT_THROW(AdditiveCost({-1.0}), std::invalid_argument);
}

// The paper's single-crossing assumptions (Section III.A): c_qq >= 0,
// c_q_theta > 0, c_qq_theta >= 0.
TEST(SingleCrossing, HoldsForAdditiveCost) {
    const AdditiveCost c({1.0, 2.0});
    const auto report = check_single_crossing(c, {0.1, 0.1}, {1.0, 1.0}, 0.5, 1.5);
    EXPECT_TRUE(report.all_hold());
}

TEST(SingleCrossing, HoldsForQuadraticCost) {
    const QuadraticCost c({1.0});
    const auto report = check_single_crossing(c, {0.1}, {2.0}, 0.5, 1.5);
    EXPECT_TRUE(report.all_hold());
}

TEST(SingleCrossing, HoldsForPowerCost) {
    const PowerCost c({1.0, 0.5}, 1.5);
    const auto report = check_single_crossing(c, {0.1, 0.1}, {2.0, 2.0}, 0.5, 1.5);
    EXPECT_TRUE(report.all_hold());
}

namespace {

/// A cost that violates c_q_theta > 0 (marginal cost falls with theta).
class PerverseCost final : public CostModel {
public:
    [[nodiscard]] double cost(const QualityVector& q, double theta) const override {
        return (2.0 - theta) * q[0];
    }
    [[nodiscard]] double cost_theta_derivative(const QualityVector& q,
                                               double) const override {
        return -q[0];
    }
    [[nodiscard]] std::size_t dimensions() const override { return 1; }
};

} // namespace

TEST(SingleCrossing, DetectsViolation) {
    const PerverseCost c;
    const auto report = check_single_crossing(c, {0.1}, {1.0}, 0.5, 1.5);
    EXPECT_FALSE(report.marginal_increasing_in_theta);
    EXPECT_FALSE(report.all_hold());
}

} // namespace
} // namespace fmore::auction

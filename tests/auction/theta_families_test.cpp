// Equilibrium invariants swept across the theta-distribution families the
// stats substrate supports (uniform, truncated normal, scaled beta and a
// history-learned empirical CDF): the solver must deliver a valid strategy
// for any admissible F (positive density on a bounded support).

#include <gtest/gtest.h>

#include <cmath>
#include <memory>

#include "fmore/auction/equilibrium.hpp"
#include "fmore/reference/distributions.hpp"

namespace fmore::auction {
namespace {

class SqrtScoring final : public ScoringRule {
public:
    [[nodiscard]] double quality_score(const QualityVector& q) const override {
        return 2.0 * std::sqrt(q[0]);
    }
    [[nodiscard]] std::size_t dimensions() const override { return 1; }
};

std::unique_ptr<stats::Distribution> make_family(int which) {
    switch (which) {
        case 0: return std::make_unique<stats::UniformDistribution>(0.5, 1.5);
        case 1:
            return std::make_unique<reference::TruncatedNormalDistribution>(1.0, 0.3, 0.5, 1.5);
        case 2: return std::make_unique<reference::ScaledBetaDistribution>(2.0, 3.0, 0.5, 1.5);
        default: {
            stats::Rng rng(1234);
            const stats::UniformDistribution base(0.5, 1.5);
            std::vector<double> history(600);
            for (double& h : history) h = base.sample(rng);
            return std::make_unique<reference::EmpiricalCdf>(std::move(history));
        }
    }
}

class ThetaFamilySweep : public ::testing::TestWithParam<int> {
protected:
    ThetaFamilySweep() : scoring_(), cost_({1.0}), dist_(make_family(GetParam())) {}

    EquilibriumStrategy solve(std::size_t n, std::size_t k) const {
        EquilibriumConfig cfg;
        cfg.num_bidders = n;
        cfg.num_winners = k;
        return EquilibriumSolver(scoring_, cost_, *dist_, {0.01}, {4.0}, cfg).solve();
    }

    SqrtScoring scoring_;
    AdditiveCost cost_;
    std::unique_ptr<stats::Distribution> dist_;
};

TEST_P(ThetaFamilySweep, IndividualRationalityEverywhere) {
    const auto strategy = solve(40, 8);
    for (double theta = dist_->support_lo(); theta <= dist_->support_hi();
         theta += 0.05) {
        const double c = cost_.cost(strategy.quality(theta), theta);
        EXPECT_GE(strategy.payment(theta), c - 1e-9) << "theta=" << theta;
    }
}

TEST_P(ThetaFamilySweep, SurplusAndWinProbabilityMonotone) {
    const auto strategy = solve(40, 8);
    double prev_u = 1e300;
    double prev_g = 1.1;
    for (double theta = dist_->support_lo(); theta <= dist_->support_hi();
         theta += 0.05) {
        const double u = strategy.max_surplus(theta);
        const double g = strategy.win_probability_at(theta);
        EXPECT_LE(u, prev_u + 1e-9);
        EXPECT_LE(g, prev_g + 1e-6);
        prev_u = u;
        prev_g = g;
    }
}

TEST_P(ThetaFamilySweep, ExpectedProfitDecreasesInType) {
    const auto strategy = solve(60, 12);
    double prev = 1e300;
    for (double theta = dist_->support_lo(); theta <= dist_->support_hi();
         theta += 0.1) {
        const double profit = strategy.expected_profit(theta);
        EXPECT_LE(profit, prev + 1e-9);
        EXPECT_GE(profit, -1e-9);
        prev = profit;
    }
}

TEST_P(ThetaFamilySweep, EulerTracksIntegralPayment) {
    const auto strategy = solve(30, 6);
    const double lo = dist_->support_lo();
    const double hi = dist_->support_hi();
    for (double theta = lo + 0.05; theta <= lo + 0.8 * (hi - lo); theta += 0.1) {
        const double ref = strategy.payment(theta, PaymentMethod::integral);
        EXPECT_NEAR(strategy.payment(theta, PaymentMethod::euler_ode), ref,
                    0.05 * std::fabs(ref) + 1e-3)
            << "theta=" << theta;
    }
}

TEST_P(ThetaFamilySweep, ScoreCdfSpansZeroToOne) {
    const auto strategy = solve(30, 6);
    EXPECT_NEAR(strategy.score_cdf(strategy.score_lo()), 0.0, 1e-9);
    EXPECT_NEAR(strategy.score_cdf(strategy.score_hi()), 1.0, 1e-9);
}

INSTANTIATE_TEST_SUITE_P(AllThetaFamilies, ThetaFamilySweep,
                         ::testing::Values(0, 1, 2, 3),
                         [](const ::testing::TestParamInfo<int>& param) {
                             switch (param.param) {
                                 case 0: return std::string("Uniform");
                                 case 1: return std::string("TruncatedNormal");
                                 case 2: return std::string("ScaledBeta");
                                 default: return std::string("EmpiricalCdf");
                             }
                         });

} // namespace
} // namespace fmore::auction

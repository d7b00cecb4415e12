#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "fmore/auction/scoring.hpp"
#include "fmore/stats/rng.hpp"

namespace fmore::auction {
namespace {

TEST(AdditiveScoring, WeightedSum) {
    const AdditiveScoring s({0.4, 0.3, 0.3});
    EXPECT_NEAR(s.quality_score({1.0, 2.0, 3.0}), 0.4 + 0.6 + 0.9, 1e-12);
    EXPECT_NEAR(s.score({1.0, 2.0, 3.0}, 0.5), 1.9 - 0.5, 1e-12);
}

TEST(AdditiveScoring, RejectsWrongDimension) {
    const AdditiveScoring s({1.0, 1.0});
    EXPECT_THROW((void)s.quality_score({1.0}), std::invalid_argument);
    EXPECT_THROW(AdditiveScoring(std::vector<double>{}), std::invalid_argument);
}

TEST(LeontiefScoring, TakesMinimum) {
    const LeontiefScoring s({0.5, 0.5});
    EXPECT_DOUBLE_EQ(s.quality_score({0.8, 0.4}), 0.2);
    EXPECT_DOUBLE_EQ(s.quality_score({0.2, 0.9}), 0.1);
}

TEST(CobbDouglas, GeometricForm) {
    const CobbDouglasScoring s({0.5, 0.5});
    EXPECT_NEAR(s.quality_score({4.0, 9.0}), 6.0, 1e-12);
}

TEST(CobbDouglas, RejectsNegativeQuality) {
    const CobbDouglasScoring s({0.5, 0.5});
    EXPECT_THROW((void)s.quality_score({-1.0, 1.0}), std::domain_error);
}

TEST(ScaledProduct, PaperSimulatorForm) {
    // Section V.A: S(q1, q2, p) = alpha q1 q2 - p with alpha = 25.
    const ScaledProductScoring s(25.0, 2);
    EXPECT_DOUBLE_EQ(s.quality_score({0.5, 0.8}), 10.0);
    EXPECT_DOUBLE_EQ(s.score({0.5, 0.8}, 3.0), 7.0);
}

TEST(ScaledProduct, WithNormalizers) {
    std::vector<stats::MinMaxNormalizer> norms;
    norms.emplace_back(0.0, 100.0);
    norms.emplace_back(0.0, 1.0);
    const ScaledProductScoring s(25.0, 2, norms);
    EXPECT_DOUBLE_EQ(s.quality_score({50.0, 1.0}), 12.5);
}

// Lock the implementation to the paper's walk-through (Fig. 3): Leontief
// scoring with alpha = (0.5, 0.5), data in [1000, 5000], bandwidth in
// [5, 100] Mb.
class WalkthroughScoring : public ::testing::Test {
protected:
    WalkthroughScoring() {
        std::vector<stats::MinMaxNormalizer> norms;
        norms.emplace_back(1000.0, 5000.0);
        norms.emplace_back(5.0, 100.0);
        scoring_ = std::make_unique<LeontiefScoring>(
            std::vector<double>{0.5, 0.5}, norms);
    }
    std::unique_ptr<LeontiefScoring> scoring_;
};

TEST_F(WalkthroughScoring, RoundOneScoresMatchPaper) {
    // Paper rounds to three decimals; allow half a unit in the last place.
    EXPECT_NEAR(scoring_->score({4000.0, 85.0}, 0.20), 0.175, 6e-4);  // A
    EXPECT_NEAR(scoring_->score({3000.0, 35.0}, 0.10), 0.058, 6e-4);  // B
    EXPECT_NEAR(scoring_->score({3500.0, 75.0}, 0.18), 0.133, 6e-4);  // C
    EXPECT_NEAR(scoring_->score({5000.0, 85.0}, 0.20), 0.221, 6e-4);  // D
    EXPECT_NEAR(scoring_->score({5000.0, 100.0}, 0.20), 0.300, 6e-4); // E
}

TEST_F(WalkthroughScoring, RoundTwoScoresMatchPaper) {
    EXPECT_NEAR(scoring_->score({4000.0, 85.0}, 0.16), 0.215, 5e-4);  // A
    EXPECT_NEAR(scoring_->score({3500.0, 45.0}, 0.10), 0.111, 5e-4);  // B
    EXPECT_NEAR(scoring_->score({4000.0, 80.0}, 0.15), 0.225, 5e-4);  // C
    EXPECT_NEAR(scoring_->score({4000.0, 80.0}, 0.20), 0.175, 5e-4);  // D
    EXPECT_NEAR(scoring_->score({5000.0, 100.0}, 0.30), 0.200, 5e-4); // E
}

// Property: raising any quality dimension never lowers any of the scoring
// families (the monotonicity Theorem 5's IC argument relies on).
class ScoringMonotonicity : public ::testing::TestWithParam<int> {};

TEST_P(ScoringMonotonicity, QualityScoreIsMonotone) {
    const int family = GetParam();
    std::unique_ptr<ScoringRule> rule;
    switch (family) {
        case 0: rule = std::make_unique<AdditiveScoring>(std::vector<double>{0.4, 0.6}); break;
        case 1: rule = std::make_unique<LeontiefScoring>(std::vector<double>{0.5, 0.5}); break;
        case 2: rule = std::make_unique<CobbDouglasScoring>(std::vector<double>{0.3, 0.7}); break;
        default: rule = std::make_unique<ScaledProductScoring>(25.0, 2); break;
    }
    stats::Rng rng(100 + family);
    for (int t = 0; t < 200; ++t) {
        QualityVector q{rng.uniform(0.01, 1.0), rng.uniform(0.01, 1.0)};
        QualityVector q_up = q;
        q_up[t % 2] += rng.uniform(0.0, 0.5);
        EXPECT_GE(rule->quality_score(q_up), rule->quality_score(q) - 1e-12);
    }
}

INSTANTIATE_TEST_SUITE_P(AllFamilies, ScoringMonotonicity, ::testing::Values(0, 1, 2, 3));

// The scaled product's row kernel normalizes through
// `MinMaxNormalizer::transform_rows`, which skips a subtraction of +0 and
// multiplies by an exact power-of-two reciprocal. Each row must still equal
// quality_score_span's in every bit, for ranges that take either shortcut,
// both, or neither, on qualities with +-0, subnormals, +-inf and NaN.
TEST(ScaledProductRows, RowKernelMatchesTheSpanCallBitForBit) {
    using stats::MinMaxNormalizer;
    const std::vector<std::vector<MinMaxNormalizer>> sets{
        {},
        {MinMaxNormalizer(0.0, 150.0), MinMaxNormalizer(0.0, 1.0)},
        {MinMaxNormalizer(-3.0, -1.0), MinMaxNormalizer(0.0, 0.5)},
        {MinMaxNormalizer(5.0, 8.0), MinMaxNormalizer(-0.0, 1.0)},
        {MinMaxNormalizer(0.0, std::ldexp(1.0, 40)),
         MinMaxNormalizer(1.0, 1.0 + std::ldexp(1.0, -40))},
    };
    const double odd[] = {0.0,
                          -0.0,
                          std::numeric_limits<double>::denorm_min(),
                          std::numeric_limits<double>::infinity(),
                          -std::numeric_limits<double>::infinity(),
                          std::numeric_limits<double>::quiet_NaN()};
    stats::Rng rng(142);
    for (std::size_t set = 0; set < sets.size(); ++set) {
        const ScaledProductScoring rule(25.0, 2, sets[set]);
        for (const std::size_t n : {std::size_t{1}, std::size_t{7}, std::size_t{256},
                                    std::size_t{300}}) {
            SCOPED_TRACE("normalizer set " + std::to_string(set) + ", " + std::to_string(n)
                         + " rows");
            std::vector<double> q(2 * n);
            for (std::size_t c = 0; c < q.size(); ++c)
                q[c] = c % 5 == 3 ? odd[(c / 5) % 6] : rng.uniform(-20.0, 200.0);
            std::vector<double> out(n);
            rule.quality_score_rows(q.data(), n, out.data());
            for (std::size_t r = 0; r < n; ++r) {
                const double row[2] = {q[r], q[n + r]};
                EXPECT_EQ(std::bit_cast<std::uint64_t>(out[r]),
                          std::bit_cast<std::uint64_t>(rule.quality_score_span(row, 2)))
                    << "row " << r << ": (" << row[0] << ", " << row[1] << ")";
            }
        }
    }
}

} // namespace
} // namespace fmore::auction

#include <gtest/gtest.h>

#include <stdexcept>
#include <vector>

#include "fmore/mec/auction_selector.hpp"
#include "fmore/mec/blacklist.hpp"
#include "fmore/ml/synthetic.hpp"

namespace fmore::mec {
namespace {

TEST(Blacklist, BasicSetSemantics) {
    Blacklist list;
    EXPECT_EQ(list.size(), 0u);
    EXPECT_FALSE(list.contains(3));
    list.ban(3);
    list.ban(3);
    EXPECT_TRUE(list.contains(3));
    EXPECT_EQ(list.size(), 1u);
    list.clear();
    EXPECT_FALSE(list.contains(3));
}

TEST(Blacklist, OffsetListServesIdsFromItsFirstOn) {
    Blacklist list(100);
    list.ban(100);
    list.ban(105);
    EXPECT_TRUE(list.contains(100));
    EXPECT_TRUE(list.contains(105));
    EXPECT_FALSE(list.contains(99));
    EXPECT_FALSE(list.contains(0));
    EXPECT_EQ(list.banned_ids(), (std::vector<std::size_t>{100, 105}));
    // An id below the first would wrap the array's index.
    EXPECT_THROW(list.ban(99), std::invalid_argument);
    EXPECT_THROW(list.ban(0), std::invalid_argument);
    EXPECT_EQ(list.size(), 2u);
    EXPECT_EQ(list.banned_ids(), (std::vector<std::size_t>{100, 105}));
}

TEST(Blacklist, MayContainOnlyRangesMeetingTheBannedSpan) {
    Blacklist list(100);
    // Nothing banned: no range may hold a ban, however wide.
    EXPECT_FALSE(list.may_contain(0, 1000));
    EXPECT_FALSE(list.may_contain(100, 101));
    list.ban(300);
    list.ban(140);
    list.ban(200);
    // [lo, hi) below the span [140, 300], ending at or before 140.
    EXPECT_FALSE(list.may_contain(0, 100));
    EXPECT_FALSE(list.may_contain(100, 140));
    // Across either end, inside (even a range holding no ban: the span is
    // all it knows), and exactly the span.
    EXPECT_TRUE(list.may_contain(100, 141));
    EXPECT_TRUE(list.may_contain(139, 145));
    EXPECT_TRUE(list.may_contain(150, 160));
    EXPECT_TRUE(list.may_contain(299, 400));
    EXPECT_TRUE(list.may_contain(140, 301));
    EXPECT_TRUE(list.may_contain(0, 1000));
    // Beyond the span, starting after 300.
    EXPECT_FALSE(list.may_contain(301, 302));
    EXPECT_FALSE(list.may_contain(301, 100000));
    // An empty range holds nothing.
    EXPECT_FALSE(list.may_contain(200, 200));
    // Wherever it may not, contains agrees.
    for (std::size_t id = 0; id < 500; ++id) {
        if (!list.may_contain(id, id + 1)) {
            EXPECT_FALSE(list.contains(id)) << id;
        }
    }
    // A clear empties the span; later bans start a new one.
    list.clear();
    EXPECT_FALSE(list.may_contain(0, 1000));
    list.ban(250);
    EXPECT_FALSE(list.may_contain(140, 250));
    EXPECT_TRUE(list.may_contain(250, 251));
    EXPECT_FALSE(list.may_contain(251, 400));
}

TEST(Compliance, ZeroProbabilityAlwaysDelivers) {
    ComplianceSpec spec;
    spec.defect_probability = 0.0;
    stats::Rng rng(1);
    for (int t = 0; t < 100; ++t) {
        const auto out = roll_compliance(spec, 80, rng);
        EXPECT_FALSE(out.defected);
        EXPECT_EQ(out.delivered_samples, 80u);
    }
}

TEST(Compliance, DefectorsDeliverTheFactor) {
    ComplianceSpec spec;
    spec.defect_probability = 1.0;
    spec.under_delivery_factor = 0.25;
    stats::Rng rng(2);
    const auto out = roll_compliance(spec, 100, rng);
    EXPECT_TRUE(out.defected);
    EXPECT_EQ(out.delivered_samples, 25u);
}

TEST(Compliance, DefectRateMatchesProbability) {
    ComplianceSpec spec;
    spec.defect_probability = 0.3;
    stats::Rng rng(3);
    int defects = 0;
    constexpr int trials = 5000;
    for (int t = 0; t < trials; ++t) {
        if (roll_compliance(spec, 50, rng).defected) ++defects;
    }
    EXPECT_NEAR(static_cast<double>(defects) / trials, 0.3, 0.03);
}

TEST(Compliance, AtLeastOneSampleDelivered) {
    ComplianceSpec spec;
    spec.defect_probability = 1.0;
    spec.under_delivery_factor = 0.0;
    stats::Rng rng(4);
    EXPECT_EQ(roll_compliance(spec, 10, rng).delivered_samples, 1u);
}

TEST(Compliance, RejectsBadSpec) {
    stats::Rng rng(5);
    ComplianceSpec bad;
    bad.defect_probability = 1.5;
    EXPECT_THROW(roll_compliance(bad, 10, rng), std::invalid_argument);
    bad.defect_probability = 0.5;
    bad.under_delivery_factor = 1.0;
    EXPECT_THROW(roll_compliance(bad, 10, rng), std::invalid_argument);
}

// Integration with the auction selector: defectors get banned and never bid
// again; the market keeps clearing with the remaining nodes.
class BlacklistIntegration : public ::testing::Test {
protected:
    BlacklistIntegration()
        : theta_(0.5, 1.5),
          scoring_(25.0, 2,
                   {stats::MinMaxNormalizer(0.0, 60.0), stats::MinMaxNormalizer(0.0, 1.0)}),
          cost_({6.0 / 60.0, 2.0}) {
        stats::Rng rng(1);
        ml::ImageDatasetSpec spec;
        spec.samples = 900;
        const ml::Dataset data = ml::make_synthetic_images(spec, rng);
        stats::Rng prng(2);
        shards_ = ml::partition_non_iid_variable(data, 24, 1, 4, prng);
        ml::resize_shards(shards_, data, 10, 60, prng);
        PopulationSpec pop_spec;
        stats::Rng pop_rng(3);
        population_ = std::make_unique<MecPopulation>(shards_, 10, theta_, pop_spec, pop_rng);
        auction::EquilibriumConfig eq;
        eq.num_bidders = 24;
        eq.num_winners = 6;
        strategy_ = std::make_unique<auction::EquilibriumStrategy>(
            auction::EquilibriumSolver(scoring_, cost_, theta_, {1.0, 0.05}, {60.0, 1.0}, eq)
                .solve());
    }

    AuctionSelector make_selector() {
        auction::WinnerDeterminationConfig wd;
        wd.num_winners = 6;
        return AuctionSelector(*population_, scoring_, *strategy_, wd,
                               data_category_extractor(), 0);
    }

    stats::UniformDistribution theta_;
    auction::ScaledProductScoring scoring_;
    auction::AdditiveCost cost_;
    std::vector<ml::ClientShard> shards_;
    std::unique_ptr<MecPopulation> population_;
    std::unique_ptr<auction::EquilibriumStrategy> strategy_;
};

TEST_F(BlacklistIntegration, DefectorsAreBannedAndExcluded) {
    AuctionSelector selector = make_selector();
    ComplianceSpec spec;
    spec.defect_probability = 1.0; // every winner defects once
    selector.set_compliance(spec);
    stats::Rng rng(7);

    const fl::SelectionRecord round1 = selector.select(1, 6, rng);
    EXPECT_EQ(selector.blacklist().size(), 6u);
    // Defectors delivered less than they bid.
    for (const auto& sel : round1.selected) {
        const auto& bid = selector.last_bids()[0]; // any bid: just check shape
        (void)bid;
        ASSERT_TRUE(sel.train_samples.has_value());
    }

    const fl::SelectionRecord round2 = selector.select(2, 6, rng);
    EXPECT_EQ(selector.blacklist().size(), 12u);
    for (const auto& sel2 : round2.selected) {
        for (const auto& sel1 : round1.selected) {
            EXPECT_NE(sel2.client, sel1.client);
        }
    }
    // Bid pool shrinks accordingly.
    EXPECT_EQ(selector.last_bids().size(), 24u - 6u);
}

TEST_F(BlacklistIntegration, NoCompliancePressureMeansNoBans) {
    AuctionSelector selector = make_selector();
    stats::Rng rng(8);
    for (int r = 1; r <= 5; ++r) (void)selector.select(r, 6, rng);
    EXPECT_EQ(selector.blacklist().size(), 0u);
}

TEST_F(BlacklistIntegration, MarketSurvivesHeavyBanning) {
    AuctionSelector selector = make_selector();
    ComplianceSpec spec;
    spec.defect_probability = 0.5;
    selector.set_compliance(spec);
    stats::Rng rng(9);
    for (int r = 1; r <= 3; ++r) {
        const auto record = selector.select(r, 6, rng);
        EXPECT_FALSE(record.selected.empty());
    }
    EXPECT_GT(selector.blacklist().size(), 0u);
    EXPECT_LT(selector.blacklist().size(), 24u);
}

} // namespace
} // namespace fmore::mec

#include <gtest/gtest.h>

#include <cmath>
#include <set>
#include <stdexcept>
#include <string>
#include <vector>

#include "fmore/mec/auction_selector.hpp"
#include "fmore/mec/sharded_selector.hpp"
#include "fmore/mec/streaming_selector.hpp"
#include "fmore/ml/synthetic.hpp"

namespace fmore::mec {
namespace {

class AuctionSelectorTest : public ::testing::Test {
protected:
    AuctionSelectorTest()
        : theta_(0.5, 1.5),
          scoring_(25.0, 2,
                   {stats::MinMaxNormalizer(0.0, 60.0), stats::MinMaxNormalizer(0.0, 1.0)}),
          cost_({6.0 / 60.0, 2.0}) {
        stats::Rng rng(1);
        ml::ImageDatasetSpec spec;
        spec.samples = 1200;
        const ml::Dataset data = ml::make_synthetic_images(spec, rng);
        stats::Rng prng(2);
        shards_ = ml::partition_non_iid_variable(data, 30, 1, 4, prng);
        ml::resize_shards(shards_, data, 10, 60, prng);

        PopulationSpec pop_spec;
        stats::Rng pop_rng(3);
        population_ = std::make_unique<MecPopulation>(shards_, 10, theta_, pop_spec, pop_rng);

        auction::EquilibriumConfig eq;
        eq.num_bidders = 30;
        eq.num_winners = 6;
        strategy_ = std::make_unique<auction::EquilibriumStrategy>(
            auction::EquilibriumSolver(scoring_, cost_, theta_, {1.0, 0.05}, {60.0, 1.0}, eq)
                .solve());
    }

    AuctionSelector make_selector(double psi = 1.0) {
        auction::WinnerDeterminationConfig wd;
        wd.num_winners = 6;
        wd.psi = psi;
        return AuctionSelector(*population_, scoring_, *strategy_, wd,
                               data_category_extractor(), /*data_dimension=*/0);
    }

    stats::UniformDistribution theta_;
    auction::ScaledProductScoring scoring_;
    auction::AdditiveCost cost_;
    std::vector<ml::ClientShard> shards_;
    std::unique_ptr<MecPopulation> population_;
    std::unique_ptr<auction::EquilibriumStrategy> strategy_;
};

TEST_F(AuctionSelectorTest, SelectsKWithPaymentsAndScores) {
    AuctionSelector selector = make_selector();
    stats::Rng rng(4);
    const fl::SelectionRecord record = selector.select(1, 6, rng);
    ASSERT_EQ(record.selected.size(), 6u);
    EXPECT_EQ(record.all_scores.size(), 30u);
    for (const auto& sel : record.selected) {
        EXPECT_LT(sel.client, 30u);
        EXPECT_GT(sel.payment, 0.0);
        ASSERT_TRUE(sel.train_samples.has_value());
        EXPECT_GE(*sel.train_samples, 1u);
    }
}

TEST_F(AuctionSelectorTest, BidsClippedToAvailableResources) {
    AuctionSelector selector = make_selector();
    stats::Rng rng(5);
    (void)selector.select(1, 6, rng);
    for (const auction::Bid& bid : selector.last_bids()) {
        const ResourceState resources = population_->store().resources(bid.node);
        EXPECT_LE(bid.quality[0], resources.data_size + 1e-9);
        EXPECT_LE(bid.quality[1], resources.category_proportion + 1e-9);
    }
}

TEST_F(AuctionSelectorTest, PaymentsAreIndividuallyRational) {
    AuctionSelector selector = make_selector();
    stats::Rng rng(6);
    (void)selector.select(1, 6, rng);
    for (const auction::Bid& bid : selector.last_bids()) {
        EXPECT_GE(bid.payment,
                  cost_.cost(bid.quality, population_->store().theta(bid.node)) - 1e-9);
    }
}

TEST_F(AuctionSelectorTest, WinnersHaveTopScores) {
    AuctionSelector selector = make_selector();
    stats::Rng rng(7);
    const fl::SelectionRecord record = selector.select(1, 6, rng);
    std::vector<double> sorted = record.all_scores; // already descending
    for (std::size_t i = 0; i < record.selected.size(); ++i) {
        EXPECT_NEAR(record.selected[i].score, sorted[i], 1e-9);
    }
}

TEST_F(AuctionSelectorTest, TrainSamplesMatchBidDataDimension) {
    AuctionSelector selector = make_selector();
    stats::Rng rng(8);
    const fl::SelectionRecord record = selector.select(1, 6, rng);
    for (const auto& sel : record.selected) {
        const auction::Bid& bid = selector.last_bids()[sel.client];
        EXPECT_EQ(*sel.train_samples,
                  static_cast<std::size_t>(std::floor(bid.quality[0])));
    }
}

TEST_F(AuctionSelectorTest, PsiVariantNamesItself) {
    AuctionSelector plain = make_selector(1.0);
    AuctionSelector psi = make_selector(0.5);
    EXPECT_EQ(plain.name(), "FMore");
    EXPECT_EQ(psi.name(), "psi-FMore");
}

TEST_F(AuctionSelectorTest, PsiBroadensTheWinnerPool) {
    stats::Rng rng(9);
    AuctionSelector plain = make_selector(1.0);
    std::set<std::size_t> plain_winners;
    for (int r = 1; r <= 30; ++r) {
        for (const auto& sel : plain.select(r, 6, rng).selected) {
            plain_winners.insert(sel.client);
        }
    }
    stats::Rng rng2(9);
    AuctionSelector psi = make_selector(0.3);
    std::set<std::size_t> psi_winners;
    for (int r = 1; r <= 30; ++r) {
        for (const auto& sel : psi.select(r, 6, rng2).selected) {
            psi_winners.insert(sel.client);
        }
    }
    EXPECT_GT(psi_winners.size(), plain_winners.size());
}

TEST_F(AuctionSelectorTest, ResourcesEvolveBetweenRounds) {
    AuctionSelector selector = make_selector();
    stats::Rng rng(10);
    (void)selector.select(1, 6, rng);
    const auto bids_r1 = selector.last_bids();
    (void)selector.select(2, 6, rng);
    const auto bids_r2 = selector.last_bids();
    // Dynamic resources should change at least one bid's quality.
    bool changed = false;
    for (std::size_t i = 0; i < bids_r1.size(); ++i) {
        if (bids_r1[i].quality != bids_r2[i].quality) changed = true;
    }
    EXPECT_TRUE(changed);
}

TEST_F(AuctionSelectorTest, EverySelectorRejectsABadLayoutAtConstruction) {
    // A three-dimension broadcast rule over a two-column layout and a
    // two-dimension strategy solved against another rule: no round can
    // score these bids, so each selector refuses them before its first
    // round, as the cross-process aggregator does before it forks.
    const auction::AdditiveScoring broadcast({0.4, 0.3, 0.3});
    const QualityLayout layout{ResourceDim::data_size, ResourceDim::category_proportion};
    auction::WinnerDeterminationConfig wd;
    wd.num_winners = 6;
    EXPECT_THROW(AuctionSelector(*population_, broadcast, *strategy_, wd, layout, 0),
                 std::invalid_argument);
    EXPECT_THROW(ShardedAuctionSelector(*population_, broadcast, *strategy_, wd, layout, 0,
                                        /*num_shards=*/2),
                 std::invalid_argument);
    EXPECT_THROW(ShardedAuctionSelector(*population_, broadcast, *strategy_, wd, layout, 0,
                                        std::vector<std::size_t>{7}),
                 std::invalid_argument);
    EXPECT_THROW(StreamingAuctionSelector(*population_, broadcast, *strategy_, wd, layout, 0,
                                          StreamingRoundConfig{}),
                 std::invalid_argument);
}

TEST_F(AuctionSelectorTest, StreamingSelectorRejectsAnUnusableCloseAtConstruction) {
    // The streaming round's deadline is checked before the first round: a
    // negative or NaN deadline can never be compared.
    auction::WinnerDeterminationConfig wd;
    wd.num_winners = 6;
    const QualityLayout layout = data_category_extractor();
    const auto refusal = [&](const StreamingRoundConfig& sc) -> std::string {
        try {
            (void)StreamingAuctionSelector(*population_, scoring_, *strategy_, wd, layout, 0,
                                           sc);
        } catch (const std::invalid_argument& e) {
            return e.what();
        }
        return "";
    };
    StreamingRoundConfig sc;
    sc.deadline_s = -0.5;
    EXPECT_NE(refusal(sc).find("deadline_s"), std::string::npos);
    sc.deadline_s = std::nan("");
    EXPECT_NE(refusal(sc).find("deadline_s"), std::string::npos);
    sc.deadline_s = 2.5;
    EXPECT_EQ(refusal(sc), "");
}

TEST_F(AuctionSelectorTest, EverySelectorRejectsABanOutsideThePopulation) {
    // A checkpoint is untrusted input: the blacklist sizes its array by the
    // largest id (2^34 would take 64 GiB), and any id past N would skew the
    // active count. Each selector refuses such a checkpoint whole and keeps
    // its bans. The ids stay small enough that a build without the check
    // fails here instead of allocating.
    auction::WinnerDeterminationConfig wd;
    wd.num_winners = 6;
    const QualityLayout layout = data_category_extractor();
    AuctionSelector mono(*population_, scoring_, *strategy_, wd, layout, 0);
    ShardedAuctionSelector sharded(*population_, scoring_, *strategy_, wd, layout, 0,
                                   /*num_shards=*/3);
    StreamingAuctionSelector streaming(*population_, scoring_, *strategy_, wd, layout, 0,
                                       StreamingRoundConfig{});
    const std::size_t n = population_->size();
    fl::SelectorCheckpoint kept;
    kept.banned_nodes = {0, n - 1};
    for (const std::uint64_t bad : {std::uint64_t{n}, n + (std::uint64_t{1} << 20)}) {
        fl::SelectorCheckpoint hostile;
        hostile.banned_nodes = {3, bad};
        const auto check = [&](fl::ClientSelector& selector, const Blacklist& blacklist) {
            selector.restore_checkpoint(kept);
            try {
                selector.restore_checkpoint(hostile);
                ADD_FAILURE() << selector.name() << " took ban id " << bad;
            } catch (const std::invalid_argument& e) {
                const std::string what = e.what();
                EXPECT_NE(what.find(std::to_string(bad)), std::string::npos) << what;
                EXPECT_NE(what.find(std::to_string(n)), std::string::npos) << what;
            }
            EXPECT_EQ(blacklist.banned_ids(), (std::vector<std::size_t>{0, n - 1}));
        };
        check(mono, mono.blacklist());
        check(sharded, sharded.blacklist());
        check(streaming, streaming.blacklist());
    }
}

} // namespace
} // namespace fmore::mec

// Allocation-count suite for the market's steady state: once their buffers
// have grown, a sharded streaming close, a shard worker's head pass and an
// in-process sharded auction round make no heap allocation. Counts through
// the replaced global operator new (counting_new.hpp).

#include <gtest/gtest.h>

#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include "counting_new.hpp"
#include "fmore/auction/cost.hpp"
#include "fmore/auction/equilibrium.hpp"
#include "fmore/auction/mechanism.hpp"
#include "fmore/auction/scoring.hpp"
#include "fmore/auction/shard_merge.hpp"
#include "fmore/auction/streaming_market.hpp"
#include "fmore/mec/auction_selector.hpp"
#include "fmore/mec/population.hpp"
#include "fmore/mec/population_store.hpp"
#include "fmore/mec/sharded_selector.hpp"
#include "fmore/mec/stream_round.hpp"
#include "fmore/mec/wire_format.hpp"
#include "fmore/stats/normalizer.hpp"

namespace fmore {
namespace {

constexpr double kDataHi = 150.0;
constexpr std::size_t kWinners = 32;

const std::vector<stats::MinMaxNormalizer>& norms() {
    static const std::vector<stats::MinMaxNormalizer> n{stats::MinMaxNormalizer(0.0, kDataHi),
                                                        stats::MinMaxNormalizer(0.0, 1.0)};
    return n;
}

const auction::ScaledProductScoring& scoring() {
    static const auction::ScaledProductScoring rule(25.0, 2, norms());
    return rule;
}

const stats::UniformDistribution& theta() {
    static const stats::UniformDistribution dist(0.5, 1.5);
    return dist;
}

/// Solved once; the strategy keeps pointers to the rule and the cost.
const auction::EquilibriumStrategy& strategy() {
    static const auction::AdditiveCost cost({6.0 / kDataHi, 2.0});
    static const auction::EquilibriumStrategy solved = [] {
        auction::EquilibriumConfig eq;
        eq.num_bidders = 1000;
        eq.num_winners = kWinners;
        return auction::EquilibriumSolver(scoring(), cost, theta(), {1.0, 0.05},
                                          {kDataHi, 1.0}, eq)
            .solve();
    }();
    return solved;
}

mec::PopulationStore make_store(std::size_t nodes) {
    mec::PopulationSpec pop;
    mec::SyntheticDataSpec data;
    data.data_lo = 20.0;
    data.data_hi = kDataHi;
    stats::Rng rng(7);
    return mec::PopulationStore(nodes, data, theta(), pop, rng);
}

const mec::QualityLayout& layout() {
    static const mec::QualityLayout cols{mec::ResourceDim::data_size,
                                         mec::ResourceDim::category_proportion};
    return cols;
}

/// Sets an environment variable for one scope, restoring what was there.
class ScopedEnv {
public:
    ScopedEnv(const char* name, const char* value) : name_(name) {
        const char* previous = std::getenv(name);
        had_previous_ = previous != nullptr;
        if (had_previous_) previous_ = previous;
        ::setenv(name, value, 1);
    }
    ~ScopedEnv() {
        if (had_previous_) ::setenv(name_, previous_.c_str(), 1);
        else ::unsetenv(name_);
    }

private:
    const char* name_;
    bool had_previous_ = false;
    std::string previous_;
};

TEST(MarketAllocations, SteadyShardedCloseAllocatesNothing) {
    // The streaming selector's close whenever auction.shards > 1: salted
    // ties, K = 32, S = 4 virtual shards over 10k arrived bids.
    constexpr std::size_t kBids = 10'000;
    auction::MechanismSpec spec;
    spec.num_winners = kWinners;
    spec.full_ranking = false;
    spec.tie_break = auction::TieBreak::salted;
    auction::StreamingMarket market(std::shared_ptr<const auction::Mechanism>(
                                        auction::make_mechanism(spec)),
                                    scoring());
    const std::vector<std::size_t> shard_starts{0, 2'500, 5'000, 7'500};

    stats::Rng bids_rng(3);
    std::vector<double> quality(2 * kBids);
    std::vector<double> payment(kBids);
    std::vector<double> score(kBids);
    for (std::size_t i = 0; i < kBids; ++i) {
        quality[2 * i] = bids_rng.uniform(5.0, kDataHi);
        quality[2 * i + 1] = bids_rng.uniform(0.1, 1.0);
        payment[i] = bids_rng.uniform(0.0, 3.0);
        score[i] = scoring().score_span(&quality[2 * i], 2, payment[i]);
    }

    stats::Rng rng(5);
    std::vector<std::size_t> close_allocations;
    for (std::size_t round = 0; round < 4; ++round) {
        market.open_round(kBids, 2, {}, rng);
        for (std::size_t i = 0; i < kBids; ++i)
            ASSERT_TRUE(market.offer(i, &quality[2 * i], payment[i], score[i],
                                     1e-4 * static_cast<double>(i)));
        const std::size_t before = allocation_count();
        const auction::AuctionOutcome& outcome = market.close_round_sharded(rng, shard_starts);
        close_allocations.push_back(allocation_count() - before);
        ASSERT_EQ(outcome.winners.size(), kWinners);
    }
    for (std::size_t round = 1; round < close_allocations.size(); ++round)
        EXPECT_EQ(close_allocations[round], 0u) << "close " << round;
}

TEST(MarketAllocations, WarmHeadPassAllocatesNothing) {
    // A shard worker's round: the head pass over its store, batch and
    // streaming, reusing one set of scratch.
    const mec::PopulationStore shard = make_store(6'000).slice(3'000, 6'000);
    mec::Blacklist bans;
    for (std::size_t i = 0; i < shard.size(); i += 17) bans.ban(shard.node_offset() + i);
    auction::TieKeys keys;
    keys.salted = true;
    keys.salt = 0x7e57;
    const mec::wire::StreamExtra cut{11, 2.0, 1.0, mec::kStreamBoundaryAny};

    std::vector<const double*> columns;
    auction::StreamingHeadMerge merge;
    auction::ShardHead head;
    const auto pass = [&](const mec::wire::StreamExtra* arrival_cut) {
        const std::size_t before = allocation_count();
        mec::collect_head_rows(shard, 0, shard.size(), layout(), strategy(), scoring(), true,
                               auction::PaymentMethod::integral, bans, arrival_cut, keys,
                               kWinners + 1, columns, merge, head);
        EXPECT_EQ(head.rows.size(), kWinners + 1);
        return allocation_count() - before;
    };
    (void)pass(nullptr);
    EXPECT_EQ(pass(nullptr), 0u);
    EXPECT_EQ(pass(&cut), 0u);
}

TEST(MarketAllocations, WarmInProcessShardedRoundAllocatesNothing) {
    // The in-process sharded market's round on one round thread: tie keys,
    // each shard's head pass, the head merge, select and price, all over
    // warm buffers. Round 1 again and again, so no drift salt joins the
    // population's history; both tie-break modes, K = 32, S = 4, 10k nodes.
    const ScopedEnv serial("FMORE_ROUND_THREADS", "1");
    for (const auction::TieBreak tie_break :
         {auction::TieBreak::shuffle, auction::TieBreak::salted}) {
        SCOPED_TRACE(tie_break == auction::TieBreak::salted ? "salted" : "shuffle");
        mec::MecPopulation population(make_store(10'000));
        auction::WinnerDeterminationConfig wd;
        wd.num_winners = kWinners;
        wd.full_ranking = false;
        wd.tie_break = tie_break;
        mec::ShardedAuctionSelector selector(population, scoring(), strategy(), wd, layout(),
                                             /*data_dimension=*/0, /*num_shards=*/4);
        stats::Rng rng(9);
        (void)selector.run_auction_round(1, kWinners, rng);
        for (int repeat = 0; repeat < 3; ++repeat) {
            const std::size_t before = allocation_count();
            const auction::AuctionOutcome& outcome =
                selector.run_auction_round(1, kWinners, rng);
            EXPECT_EQ(allocation_count() - before, 0u) << "repeat " << repeat;
            ASSERT_EQ(outcome.winners.size(), kWinners);
        }
        EXPECT_TRUE(population.store().salt_history().empty());
    }
}

} // namespace
} // namespace fmore

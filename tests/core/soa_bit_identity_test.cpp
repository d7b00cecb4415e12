// The acceptance contract of the fused SoA round: mec::AuctionSelector,
// which writes bids straight into a reused BidFrame and ranks them in one
// fused score + top-K pass, reproduces the classic per-bid market
// (reference::ClassicAuctionSelector: one Bid per node, a
// WinnerDetermination rebuilt per round) bit-identically. Both run on each
// scenario's own scoring rule, solved strategy, quality layout and data
// dimension, over twin populations, with contract compliance on so winners
// defect and get banned. After every round the whole SelectionRecord and
// the generator's next draw must agree. The trial engines read nothing
// else from a selector, so this pins what a whole-trial comparison would.

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "fmore/core/realworld.hpp"
#include "fmore/core/scenarios.hpp"
#include "fmore/core/simulation.hpp"
#include "fmore/mec/auction_selector.hpp"
#include "fmore/reference/classic_auction_selector.hpp"
#include "fmore/stats/distributions.hpp"

namespace fmore::core {
namespace {

constexpr std::size_t kRounds = 4;

ExperimentSpec tiny(const std::string& scenario) {
    ExperimentSpec spec = named_scenario(scenario);
    spec.training.train_samples = 900;
    spec.training.test_samples = 200;
    spec.training.rounds = 3;
    spec.training.eval_cap = 120;
    return spec;
}

/// What `make_market_selector` reads from the spec for the monolithic
/// market (the simulator has no latency table).
auction::WinnerDeterminationConfig wd_config(const ExperimentSpec& spec, bool psi_policy) {
    const AuctionSpec& auc = spec.auction;
    auction::WinnerDeterminationConfig wd;
    wd.mechanism = auc.mechanism;
    wd.num_winners = auc.winners;
    wd.payment_rule = auc.payment_rule;
    wd.psi = psi_policy ? auc.psi : 1.0;
    if (psi_policy) wd.psi_per_node = auc.psi_per_node;
    wd.budget = auc.budget;
    wd.full_ranking = auc.full_scoreboard;
    wd.latency_discount = auc.latency_discount;
    return wd;
}

void expect_records_equal(const fl::SelectionRecord& fused,
                          const fl::SelectionRecord& classic) {
    ASSERT_EQ(fused.selected.size(), classic.selected.size());
    for (std::size_t w = 0; w < fused.selected.size(); ++w) {
        EXPECT_EQ(fused.selected[w].client, classic.selected[w].client) << "winner " << w;
        EXPECT_EQ(fused.selected[w].payment, classic.selected[w].payment) << "winner " << w;
        EXPECT_EQ(fused.selected[w].score, classic.selected[w].score) << "winner " << w;
        EXPECT_EQ(fused.selected[w].train_samples, classic.selected[w].train_samples)
            << "winner " << w;
    }
    EXPECT_EQ(fused.all_scores, classic.all_scores);
    EXPECT_EQ(fused.scores_by_node, classic.scores_by_node);
    EXPECT_EQ(fused.dropped_shards, classic.dropped_shards);
    EXPECT_EQ(fused.shard_health.live_shards, classic.shard_health.live_shards);
    EXPECT_EQ(fused.shard_health.corrupt_frames, classic.shard_health.corrupt_frames);
    EXPECT_EQ(fused.shard_health.frame_retries, classic.shard_health.frame_retries);
    EXPECT_EQ(fused.shard_health.evictions, classic.shard_health.evictions);
    EXPECT_EQ(fused.shard_health.respawns, classic.shard_health.respawns);
    EXPECT_EQ(fused.close_reason, classic.close_reason);
    EXPECT_EQ(fused.close_time_s, classic.close_time_s);
    EXPECT_EQ(fused.arrived_bids, classic.arrived_bids);
    EXPECT_EQ(fused.bid_quorum, classic.bid_quorum);
}

/// Drive both selectors over twin populations built like the trial's.
void expect_markets_equal(const ExperimentSpec& spec, bool psi_policy,
                          const std::vector<ml::ClientShard>& shards,
                          const auction::EquilibriumStrategy& strategy) {
    const PopulationSpec& pop = spec.population;
    const bool testbed = spec.kind == ExperimentKind::testbed;
    mec::PopulationSpec pop_spec;
    if (testbed) {
        pop_spec.cpu_lo = pop.cpu_lo;
        pop_spec.cpu_hi = pop.cpu_hi;
        pop_spec.bandwidth_lo = pop.bandwidth_lo;
        pop_spec.bandwidth_hi = pop.bandwidth_hi;
    }
    pop_spec.dynamics.resource_jitter = pop.resource_jitter;
    pop_spec.dynamics.theta_jitter = pop.theta_jitter;
    const stats::UniformDistribution theta(pop.theta_lo, pop.theta_hi);
    const std::size_t classes = shards.front().label_count.size();
    stats::Rng fused_pop_rng(spec.seed ^ 0xabcdef12345ULL);
    stats::Rng classic_pop_rng(spec.seed ^ 0xabcdef12345ULL);
    mec::MecPopulation fused_pop(shards, classes, theta, pop_spec, fused_pop_rng);
    mec::MecPopulation classic_pop(shards, classes, theta, pop_spec, classic_pop_rng);

    const mec::QualityLayout layout = testbed ? mec::cpu_bandwidth_data_extractor()
                                              : mec::data_category_extractor();
    const std::size_t data_dimension = testbed ? 2 : 0;
    const auction::ScoringRule& scoring = *strategy.scoring_rule();
    const auction::WinnerDeterminationConfig wd = wd_config(spec, psi_policy);
    mec::AuctionSelector fused(fused_pop, scoring, strategy, wd, layout, data_dimension);
    reference::ClassicAuctionSelector classic(classic_pop, scoring, strategy, wd, layout,
                                              data_dimension);
    const mec::ComplianceSpec compliance{0.3, 0.5};
    fused.set_compliance(compliance);
    classic.set_compliance(compliance);

    stats::Rng fused_rng(spec.seed ^ 0xf00dULL);
    stats::Rng classic_rng(spec.seed ^ 0xf00dULL);
    for (std::size_t round = 1; round <= kRounds; ++round) {
        SCOPED_TRACE("round " + std::to_string(round));
        const fl::SelectionRecord a = fused.select(round, spec.auction.winners, fused_rng);
        const fl::SelectionRecord b = classic.select(round, spec.auction.winners, classic_rng);
        expect_records_equal(a, b);
        EXPECT_EQ(fused.blacklist().banned_ids(), classic.blacklist().banned_ids());
        stats::Rng fused_next = fused_rng;
        stats::Rng classic_next = classic_rng;
        EXPECT_EQ(fused_next.engine()(), classic_next.engine()());
    }
    // Compliance actually bit: someone defected and was shut out.
    EXPECT_GT(fused.blacklist().size(), 0u);
}

void expect_simulator_equal(const ExperimentSpec& spec, bool psi_policy) {
    const SimulationTrial trial(spec, 0);
    expect_markets_equal(spec, psi_policy, trial.shards(), trial.equilibrium());
}

TEST(SoaBitIdentity, SimulatorTrialMatchesLegacyPath) {
    expect_simulator_equal(tiny("paper/fig04"), /*psi_policy=*/false);
}

TEST(SoaBitIdentity, SimulatorPartialScoreboardMatchesLegacyPath) {
    ExperimentSpec spec = tiny("paper/fig04");
    spec.auction.full_scoreboard = false;  // the fused O(N log K) top-K path
    expect_simulator_equal(spec, /*psi_policy=*/false);
}

TEST(SoaBitIdentity, SimulatorPsiFMoreMatchesLegacyPath) {
    ExperimentSpec spec = tiny("paper/fig04");
    spec.auction.psi = 0.5;
    expect_simulator_equal(spec, /*psi_policy=*/true);
}

TEST(SoaBitIdentity, TestbedTrialMatchesLegacyPath) {
    ExperimentSpec spec = tiny("testbed/default");
    spec.auction.full_scoreboard = false;
    const RealWorldTrial trial(spec, 0);
    expect_markets_equal(spec, /*psi_policy=*/false, trial.shards(), trial.equilibrium());
}

TEST(SoaBitIdentity, SecondScoreMechanismMatchesLegacyPath) {
    ExperimentSpec spec = tiny("paper/fig04");
    spec.auction.mechanism = "second_score";
    spec.auction.full_scoreboard = false;  // exercises the top-(K+1) cut
    expect_simulator_equal(spec, /*psi_policy=*/false);
}

} // namespace
} // namespace fmore::core

// Testbed-assembly specifics: IID shards with heterogeneous sizes (see the
// calibration notes in DESIGN.md), scoring/cost scaled by the observed data
// cap, and the wall-clock model wired into every strategy.

#include <gtest/gtest.h>

#include <set>

#include "fmore/core/realworld.hpp"

namespace fmore::core {
namespace {

ExperimentSpec small() {
    ExperimentSpec spec = default_testbed_experiment();
    spec.training.train_samples = 2000;
    spec.training.test_samples = 400;
    spec.population.num_nodes = 16;
    spec.auction.winners = 4;
    spec.training.rounds = 3;
    spec.population.data_lo = 25;
    spec.population.data_hi = 120;
    spec.training.eval_cap = 150;
    return spec;
}

TEST(RealWorldAssembly, ShardSizesAreHeterogeneousWithinRange) {
    RealWorldTrial trial(small(), 0);
    // Through the FMore run we can see who holds what via train_samples.
    const fl::RunResult run = trial.run("fmore");
    std::set<std::size_t> sizes;
    for (const auto& round : run.rounds) {
        for (const auto& sel : round.selection.selected) {
            ASSERT_TRUE(sel.train_samples.has_value());
            EXPECT_LE(*sel.train_samples, 120u);
            sizes.insert(*sel.train_samples);
        }
    }
    EXPECT_GE(sizes.size(), 2u); // different volumes actually traded
}

TEST(RealWorldAssembly, AllStrategiesReportWallClock) {
    RealWorldTrial trial(small(), 0);
    for (const char* policy : {"fmore", "psi_fmore", "randfl", "fixfl"}) {
        const fl::RunResult run = trial.run(policy);
        for (const auto& round : run.rounds) {
            EXPECT_GT(round.round_seconds, 0.0) << policy;
        }
    }
}

TEST(RealWorldAssembly, AuctionRoundsCarryPayments) {
    RealWorldTrial trial(small(), 0);
    const fl::RunResult run = trial.run("fmore");
    for (const auto& round : run.rounds) {
        EXPECT_GT(round.mean_winner_payment, 0.0);
        EXPECT_EQ(round.selection.selected.size(), 4u);
    }
}

TEST(RealWorldAssembly, ReproducibleAcrossIdenticalTrials) {
    RealWorldTrial a(small(), 2);
    RealWorldTrial b(small(), 2);
    const auto ra = a.run("fmore");
    const auto rb = b.run("fmore");
    for (std::size_t r = 0; r < ra.rounds.size(); ++r) {
        EXPECT_DOUBLE_EQ(ra.rounds[r].test_accuracy, rb.rounds[r].test_accuracy);
        EXPECT_DOUBLE_EQ(ra.rounds[r].round_seconds, rb.rounds[r].round_seconds);
    }
}

TEST(RealWorldAssembly, EquilibriumUsesTestbedDimensions) {
    RealWorldTrial trial(small(), 0);
    EXPECT_EQ(trial.equilibrium().dimensions(), 3u); // cpu, bandwidth, data
    EXPECT_EQ(trial.equilibrium().num_bidders(), 16u);
    EXPECT_EQ(trial.equilibrium().num_winners(), 4u);
}

} // namespace
} // namespace fmore::core

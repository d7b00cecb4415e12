// The full fl-layer pipeline driven by the auction selector, exercising the
// extension knobs end-to-end: psi acceptance, per-round budget, compliance
// blacklisting — all through fl::Coordinator rounds.

#include <gtest/gtest.h>

#include "fmore/core/simulation.hpp"

namespace fmore::core {
namespace {

ExperimentSpec tiny() {
    ExperimentSpec spec = default_experiment(DatasetKind::mnist_o);
    spec.training.train_samples = 900;
    spec.training.test_samples = 200;
    spec.population.num_nodes = 20;
    spec.auction.winners = 5;
    spec.training.rounds = 3;
    spec.population.data_lo = 10;
    spec.population.data_hi = 40;
    spec.training.eval_cap = 100;
    return spec;
}

TEST(AuctionPipeline, BudgetLimitsWinnersPerRound) {
    ExperimentSpec spec = tiny();
    // First find the unconstrained per-round spend.
    double spend = 0.0;
    {
        SimulationTrial probe(spec, 0);
        const auto run = probe.run("fmore");
        for (const auto& sel : run.rounds.front().selection.selected) {
            spend += sel.payment;
        }
    }
    spec.auction.budget = 0.5 * spend;
    SimulationTrial trial(spec, 0);
    const auto run = trial.run("fmore");
    for (const auto& round : run.rounds) {
        EXPECT_LT(round.selection.selected.size(), 5u);
        EXPECT_GE(round.selection.selected.size(), 1u);
        double round_spend = 0.0;
        for (const auto& sel : round.selection.selected) round_spend += sel.payment;
        EXPECT_LE(round_spend, spec.auction.budget + 1e-9);
    }
}

TEST(AuctionPipeline, GenerousBudgetChangesNothing) {
    ExperimentSpec spec = tiny();
    SimulationTrial base_trial(spec, 0);
    const auto base = base_trial.run("fmore");
    spec.auction.budget = 1e9;
    SimulationTrial rich_trial(spec, 0);
    const auto rich = rich_trial.run("fmore");
    ASSERT_EQ(base.rounds.size(), rich.rounds.size());
    for (std::size_t r = 0; r < base.rounds.size(); ++r) {
        EXPECT_EQ(base.rounds[r].selection.selected.size(),
                  rich.rounds[r].selection.selected.size());
        EXPECT_DOUBLE_EQ(base.rounds[r].test_accuracy, rich.rounds[r].test_accuracy);
    }
}

TEST(AuctionPipeline, PsiRunsProduceFullWinnerSets) {
    ExperimentSpec spec = tiny();
    spec.auction.psi = 0.4;
    SimulationTrial trial(spec, 0);
    const auto run = trial.run("psi_fmore");
    for (const auto& round : run.rounds) {
        EXPECT_EQ(round.selection.selected.size(), 5u);
    }
}

TEST(AuctionPipeline, ScoresByNodeAlignWithAllScores) {
    SimulationTrial trial(tiny(), 0);
    const auto run = trial.run("fmore");
    for (const auto& round : run.rounds) {
        const auto& by_node = round.selection.scores_by_node;
        ASSERT_EQ(by_node.size(), 20u);
        std::vector<double> sorted = by_node;
        std::sort(sorted.begin(), sorted.end(), std::greater<double>());
        ASSERT_EQ(sorted.size(), round.selection.all_scores.size());
        for (std::size_t i = 0; i < sorted.size(); ++i) {
            EXPECT_NEAR(sorted[i], round.selection.all_scores[i], 1e-9);
        }
    }
}

} // namespace
} // namespace fmore::core

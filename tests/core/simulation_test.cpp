#include <gtest/gtest.h>

#include "fmore/core/realworld.hpp"
#include "fmore/core/simulation.hpp"
#include "fmore/core/sweep.hpp"

namespace fmore::core {
namespace {

/// Tiny spec so the whole trial runs in well under a second.
ExperimentSpec tiny_spec() {
    ExperimentSpec spec = default_experiment(DatasetKind::mnist_o);
    spec.training.train_samples = 900;
    spec.training.test_samples = 300;
    spec.population.num_nodes = 20;
    spec.auction.winners = 5;
    spec.training.rounds = 3;
    spec.population.data_lo = 10;
    spec.population.data_hi = 40;
    spec.training.eval_cap = 200;
    return spec;
}

TEST(SimulationTrial, BuildsConsistentWorld) {
    const SimulationTrial trial(tiny_spec(), 0);
    EXPECT_EQ(trial.shards().size(), 20u);
    EXPECT_EQ(trial.train_set().size(), 900u);
    EXPECT_EQ(trial.test_set().size(), 300u);
    EXPECT_EQ(trial.equilibrium().num_bidders(), 20u);
    EXPECT_EQ(trial.equilibrium().num_winners(), 5u);
}

TEST(SimulationTrial, AllStrategiesRun) {
    SimulationTrial trial(tiny_spec(), 0);
    for (const char* policy : {"fmore", "psi_fmore", "randfl", "fixfl"}) {
        const fl::RunResult result = trial.run(policy);
        ASSERT_EQ(result.rounds.size(), 3u) << policy;
        for (const auto& round : result.rounds) {
            EXPECT_EQ(round.selection.selected.size(), 5u);
            EXPECT_GE(round.test_accuracy, 0.0);
            EXPECT_LE(round.test_accuracy, 1.0);
        }
    }
}

TEST(SimulationTrial, FMoreRecordsAuctionArtifacts) {
    SimulationTrial trial(tiny_spec(), 0);
    const fl::RunResult result = trial.run("fmore");
    EXPECT_GT(result.rounds.back().mean_winner_payment, 0.0);
    EXPECT_EQ(trial.last_all_scores().size(), 20u);
    for (const auto& sel : result.rounds.back().selection.selected) {
        EXPECT_TRUE(sel.train_samples.has_value());
    }
}

TEST(SimulationTrial, BaselinesHaveNoPayments) {
    SimulationTrial trial(tiny_spec(), 0);
    const fl::RunResult result = trial.run("randfl");
    EXPECT_DOUBLE_EQ(result.rounds.back().mean_winner_payment, 0.0);
    EXPECT_TRUE(result.rounds.back().selection.all_scores.empty());
}

TEST(SimulationTrial, TrialsAreReproducible) {
    SimulationTrial a(tiny_spec(), 1);
    SimulationTrial b(tiny_spec(), 1);
    const auto ra = a.run("fmore");
    const auto rb = b.run("fmore");
    ASSERT_EQ(ra.rounds.size(), rb.rounds.size());
    for (std::size_t r = 0; r < ra.rounds.size(); ++r) {
        EXPECT_DOUBLE_EQ(ra.rounds[r].test_accuracy, rb.rounds[r].test_accuracy);
    }
}

TEST(SimulationTrial, DifferentTrialsDiffer) {
    SimulationTrial a(tiny_spec(), 0);
    SimulationTrial b(tiny_spec(), 1);
    const auto ra = a.run("fmore");
    const auto rb = b.run("fmore");
    bool any_diff = false;
    for (std::size_t r = 0; r < ra.rounds.size(); ++r) {
        if (ra.rounds[r].test_accuracy != rb.rounds[r].test_accuracy) any_diff = true;
    }
    EXPECT_TRUE(any_diff);
}

TEST(DefaultSimulation, AdjustsLstmHyperparameters) {
    const ExperimentSpec img = default_experiment(DatasetKind::mnist_o);
    const ExperimentSpec txt = default_experiment(DatasetKind::hpnews);
    EXPECT_GT(txt.training.learning_rate, img.training.learning_rate);
    EXPECT_GT(txt.training.local_epochs, img.training.local_epochs);
    EXPECT_EQ(txt.training.dataset, DatasetKind::hpnews);
}

TEST(Names, ToStringCoversAllEnumerators) {
    EXPECT_EQ(to_string(DatasetKind::mnist_o), "MNIST-O");
    EXPECT_EQ(to_string(DatasetKind::mnist_f), "MNIST-F");
    EXPECT_EQ(to_string(DatasetKind::cifar10), "CIFAR-10");
    EXPECT_EQ(to_string(DatasetKind::hpnews), "HPNews");
    EXPECT_EQ(policy_display_name("fmore"), "FMore");
    EXPECT_EQ(policy_display_name("psi_fmore"), "psi-FMore");
    EXPECT_EQ(policy_display_name("randfl"), "RandFL");
    EXPECT_EQ(policy_display_name("fixfl"), "FixFL");
}

TEST(RealWorldTrial, RunsWithWallClock) {
    ExperimentSpec spec = default_testbed_experiment();
    spec.training.train_samples = 900;
    spec.training.test_samples = 300;
    spec.population.num_nodes = 12;
    spec.auction.winners = 4;
    spec.training.rounds = 2;
    spec.population.data_lo = 20;
    spec.population.data_hi = 60;
    spec.training.eval_cap = 150;
    RealWorldTrial trial(spec, 0);
    const fl::RunResult fmore = trial.run("fmore");
    ASSERT_EQ(fmore.rounds.size(), 2u);
    for (const auto& round : fmore.rounds) {
        EXPECT_GT(round.round_seconds, 0.0);
    }
    const fl::RunResult rand = trial.run("randfl");
    EXPECT_GT(rand.total_seconds(), 0.0);
}

} // namespace
} // namespace fmore::core

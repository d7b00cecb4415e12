// End-to-end checks of the paper's headline behaviour on scaled-down
// workloads: the incentive-driven selector must beat random/fixed selection
// under non-IID data, and the wall-clock model must favour FMore when it
// buys fast nodes.

#include <gtest/gtest.h>

#include "fmore/core/realworld.hpp"
#include "fmore/core/simulation.hpp"
#include "fmore/core/trials.hpp"

namespace fmore::core {
namespace {

ExperimentSpec small_sim(DatasetKind dataset) {
    ExperimentSpec spec = default_experiment(dataset);
    spec.training.train_samples = 3000;
    spec.training.test_samples = 600;
    spec.population.num_nodes = 50;
    spec.auction.winners = 10;
    spec.training.rounds = 10;
    spec.population.data_lo = 15;
    spec.population.data_hi = 90;
    spec.training.eval_cap = 400;
    return spec;
}

TEST(EndToEnd, FMoreBeatsBaselinesOnAverage) {
    // Average three trials (the paper averages five full-size ones); FMore
    // must end ahead of both baselines on the easy image task.
    std::vector<fl::RunResult> fmore_runs;
    std::vector<fl::RunResult> rand_runs;
    std::vector<fl::RunResult> fix_runs;
    for (std::size_t t = 0; t < 3; ++t) {
        SimulationTrial trial(small_sim(DatasetKind::mnist_o), t);
        fmore_runs.push_back(trial.run("fmore"));
        rand_runs.push_back(trial.run("randfl"));
        fix_runs.push_back(trial.run("fixfl"));
    }
    const auto fmore = average_runs(fmore_runs);
    const auto rand = average_runs(rand_runs);
    const auto fix = average_runs(fix_runs);
    EXPECT_GT(fmore.accuracy.back(), rand.accuracy.back() - 0.02);
    EXPECT_GT(fmore.accuracy.back(), fix.accuracy.back() - 0.02);
    // And it must actually learn.
    EXPECT_GT(fmore.accuracy.back(), 0.55);
}

TEST(EndToEnd, FMoreSelectsBetterNodesThanAverage) {
    // The causal channel of the paper: winners hold more data x diversity
    // than the population average.
    SimulationTrial trial(small_sim(DatasetKind::mnist_o), 0);
    const fl::RunResult result = trial.run("fmore");
    const auto& shards = trial.shards();
    double population_mass = 0.0;
    for (const auto& shard : shards) {
        population_mass += static_cast<double>(shard.indices.size())
                           * shard.category_proportion(10);
    }
    population_mass /= static_cast<double>(shards.size());

    double winner_mass = 0.0;
    std::size_t winner_count = 0;
    for (const auto& round : result.rounds) {
        for (const auto& sel : round.selection.selected) {
            winner_mass += static_cast<double>(shards[sel.client].indices.size())
                           * shards[sel.client].category_proportion(10);
            ++winner_count;
        }
    }
    winner_mass /= static_cast<double>(winner_count);
    EXPECT_GT(winner_mass, population_mass * 1.3);
}

TEST(EndToEnd, PsiFMoreTradesScoreForDiversity) {
    ExperimentSpec spec = small_sim(DatasetKind::mnist_o);
    spec.auction.psi = 0.4;
    SimulationTrial trial(spec, 0);
    const fl::RunResult plain = trial.run("fmore");
    const fl::RunResult psi = trial.run("psi_fmore");
    // psi-FMore admits lower-scored winners on average.
    double plain_score = 0.0;
    double psi_score = 0.0;
    for (std::size_t r = 0; r < plain.rounds.size(); ++r) {
        plain_score += plain.rounds[r].mean_winner_score;
        psi_score += psi.rounds[r].mean_winner_score;
    }
    EXPECT_LT(psi_score, plain_score);
}

TEST(EndToEnd, RealWorldFMoreFasterToAccuracy) {
    // Fig. 13's claim is time-to-accuracy: FMore buys fast nodes AND more
    // data, so even when its rounds are not individually shorter it reaches
    // a given accuracy in less wall-clock time. Average two trials to tame
    // selection noise at this scale.
    ExperimentSpec spec = default_testbed_experiment();
    spec.training.train_samples = 3000;
    spec.training.test_samples = 500;
    spec.training.rounds = 12;
    spec.training.eval_cap = 400;
    std::vector<fl::RunResult> fmore_runs;
    std::vector<fl::RunResult> rand_runs;
    for (std::size_t t = 0; t < 2; ++t) {
        RealWorldTrial trial(spec, t);
        fmore_runs.push_back(trial.run("fmore"));
        rand_runs.push_back(trial.run("randfl"));
    }
    const double target = 0.30;
    const double fmore_s = mean_seconds_to_accuracy(fmore_runs, target);
    const double rand_s = mean_seconds_to_accuracy(rand_runs, target);
    EXPECT_LT(fmore_s, rand_s * 1.05);
    // And the wall-clock model must actually be engaged.
    EXPECT_GT(fmore_runs[0].total_seconds(), 0.0);
}

} // namespace
} // namespace fmore::core

#include <atomic>
#include <cstdlib>
#include <mutex>
#include <set>
#include <stdexcept>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "fmore/core/simulation.hpp"
#include "fmore/core/trials.hpp"

namespace fmore::core {
namespace {

/// Tiny spec so a trial runs in well under a second.
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

fl::RunResult synthetic_run(std::size_t trial_index) {
    fl::RunResult run;
    fl::RoundMetrics m;
    m.round = 1;
    m.test_accuracy = 0.1 * static_cast<double>(trial_index);
    run.rounds.push_back(m);
    return run;
}

TEST(RunTrials, PreservesTrialIndexOrder) {
    const auto runs = run_trials(8, synthetic_run, {.threads = 4});
    ASSERT_EQ(runs.size(), 8u);
    for (std::size_t t = 0; t < runs.size(); ++t) {
        EXPECT_DOUBLE_EQ(runs[t].rounds.front().test_accuracy,
                         0.1 * static_cast<double>(t));
    }
}

TEST(RunTrials, EachIndexRunsExactlyOnce) {
    std::atomic<int> calls{0};
    std::mutex mutex;
    std::set<std::size_t> seen;
    const auto runs = run_trials(
        17,
        [&](std::size_t t) {
            calls.fetch_add(1);
            const std::lock_guard<std::mutex> lock(mutex);
            seen.insert(t);
            return synthetic_run(t);
        },
        {.threads = 4});
    EXPECT_EQ(runs.size(), 17u);
    EXPECT_EQ(calls.load(), 17);
    EXPECT_EQ(seen.size(), 17u);
}

TEST(RunTrials, ZeroTrialsAndNullFunction) {
    EXPECT_TRUE(run_trials(0, synthetic_run).empty());
    EXPECT_THROW(run_trials(3, TrialFn{}), std::invalid_argument);
}

TEST(RunTrials, PropagatesFirstException) {
    EXPECT_THROW(run_trials(
                     6,
                     [](std::size_t t) -> fl::RunResult {
                         if (t == 3) throw std::runtime_error("trial 3 boom");
                         return synthetic_run(t);
                     },
                     {.threads = 3}),
                 std::runtime_error);
}

TEST(ResolveTrialThreads, CapsAndDefaults) {
    EXPECT_EQ(resolve_trial_threads(8, 3), 3u);  // capped at trial count
    EXPECT_EQ(resolve_trial_threads(2, 100), 2u);
    EXPECT_EQ(resolve_trial_threads(0, 1), 1u);
    EXPECT_EQ(resolve_trial_threads(0, 0), 0u);
    // auto never resolves to zero workers for real work
    EXPECT_GE(resolve_trial_threads(0, 64), 1u);
}

// The acceptance property: one root seed => bit-identical averaged series
// no matter how many workers ran the trials.
TEST(RunExperimentTrials, DeterministicAcrossThreadCounts) {
    const ExperimentSpec spec = tiny_spec();
    constexpr std::size_t kTrials = 4;
    const AveragedSeries serial =
        averaged_experiment(spec, "fmore", kTrials, {.threads = 1});
    for (const std::size_t threads : {2ul, 4ul}) {
        const AveragedSeries parallel =
            averaged_experiment(spec, "fmore", kTrials, {.threads = threads});
        ASSERT_EQ(parallel.rounds(), serial.rounds());
        for (std::size_t r = 0; r < serial.rounds(); ++r) {
            // EXPECT_EQ, not NEAR: same trials, same slots, same floats.
            EXPECT_EQ(parallel.accuracy[r], serial.accuracy[r]) << "threads=" << threads;
            EXPECT_EQ(parallel.loss[r], serial.loss[r]);
            EXPECT_EQ(parallel.payment[r], serial.payment[r]);
            EXPECT_EQ(parallel.score[r], serial.score[r]);
            EXPECT_EQ(parallel.seconds[r], serial.seconds[r]);
            EXPECT_EQ(parallel.cumulative_seconds[r], serial.cumulative_seconds[r]);
        }
    }
}

// threads=1 must reproduce the pre-runner serial loop exactly.
TEST(RunExperimentTrials, SingleThreadMatchesLegacySerialLoop) {
    const ExperimentSpec spec = tiny_spec();
    constexpr std::size_t kTrials = 3;
    std::vector<fl::RunResult> legacy;
    for (std::size_t t = 0; t < kTrials; ++t) {
        SimulationTrial trial(spec, t);
        legacy.push_back(trial.run("randfl"));
    }
    const auto pooled = run_experiment_trials(spec, "randfl", kTrials, {.threads = 1});
    ASSERT_EQ(pooled.size(), legacy.size());
    for (std::size_t t = 0; t < kTrials; ++t) {
        ASSERT_EQ(pooled[t].rounds.size(), legacy[t].rounds.size());
        for (std::size_t r = 0; r < legacy[t].rounds.size(); ++r) {
            EXPECT_EQ(pooled[t].rounds[r].test_accuracy, legacy[t].rounds[r].test_accuracy);
            EXPECT_EQ(pooled[t].rounds[r].test_loss, legacy[t].rounds[r].test_loss);
            EXPECT_EQ(pooled[t].rounds[r].mean_winner_payment,
                      legacy[t].rounds[r].mean_winner_payment);
        }
    }
}

} // namespace
} // namespace fmore::core

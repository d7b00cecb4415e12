#include <gtest/gtest.h>

#include "fmore/fl/metrics.hpp"

namespace fmore::fl {
namespace {

RunResult make_run(std::vector<double> accs, std::vector<double> secs = {}) {
    RunResult run;
    for (std::size_t i = 0; i < accs.size(); ++i) {
        RoundMetrics m;
        m.round = i + 1;
        m.test_accuracy = accs[i];
        m.test_loss = 1.0 - accs[i];
        m.round_seconds = i < secs.size() ? secs[i] : 0.0;
        run.rounds.push_back(m);
    }
    return run;
}

TEST(RunResult, FinalsReadLastRound) {
    const RunResult run = make_run({0.2, 0.5, 0.7});
    EXPECT_DOUBLE_EQ(run.final_accuracy(), 0.7);
    EXPECT_NEAR(run.final_loss(), 0.3, 1e-12);
}

TEST(RunResult, EmptyRunThrows) {
    const RunResult run;
    EXPECT_THROW((void)run.final_accuracy(), std::logic_error);
    EXPECT_THROW((void)run.final_loss(), std::logic_error);
}

TEST(RunResult, RoundsToAccuracyFindsFirstCrossing) {
    const RunResult run = make_run({0.2, 0.5, 0.7, 0.6, 0.8});
    EXPECT_EQ(run.rounds_to_accuracy(0.5).value(), 2u);
    EXPECT_EQ(run.rounds_to_accuracy(0.65).value(), 3u);
    EXPECT_EQ(run.rounds_to_accuracy(0.8).value(), 5u);
    EXPECT_FALSE(run.rounds_to_accuracy(0.9).has_value());
}

TEST(RunResult, SecondsToAccuracyAccumulates) {
    const RunResult run = make_run({0.2, 0.5, 0.7}, {10.0, 20.0, 30.0});
    EXPECT_DOUBLE_EQ(run.seconds_to_accuracy(0.5).value(), 30.0);
    EXPECT_DOUBLE_EQ(run.seconds_to_accuracy(0.7).value(), 60.0);
    EXPECT_FALSE(run.seconds_to_accuracy(0.99).has_value());
    EXPECT_DOUBLE_EQ(run.total_seconds(), 60.0);
}

} // namespace
} // namespace fmore::fl

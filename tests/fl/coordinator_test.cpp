#include <gtest/gtest.h>

#include "fmore/fl/coordinator.hpp"
#include "fmore/fl/selection.hpp"
#include "fmore/ml/model_zoo.hpp"
#include "fmore/ml/synthetic.hpp"
#include "fmore/reference/mlp.hpp"

namespace fmore::fl {
namespace {

/// Small shared fixture: 600-sample image task split over 10 clients.
class CoordinatorTest : public ::testing::Test {
protected:
    CoordinatorTest() {
        stats::Rng rng(1);
        ml::ImageDatasetSpec spec;
        spec.samples = 700;
        auto pool = ml::make_synthetic_images(spec, rng);
        const std::size_t vol = pool.sample_volume();
        train_.sample_shape = pool.sample_shape;
        train_.num_classes = pool.num_classes;
        train_.features.assign(pool.features.begin(), pool.features.begin() + 600 * vol);
        train_.labels.assign(pool.labels.begin(), pool.labels.begin() + 600);
        test_.sample_shape = pool.sample_shape;
        test_.num_classes = pool.num_classes;
        test_.features.assign(pool.features.begin() + 600 * vol, pool.features.end());
        test_.labels.assign(pool.labels.begin() + 600, pool.labels.end());

        stats::Rng prng(2);
        shards_ = ml::partition_iid(train_, 10, prng);
    }

    CoordinatorConfig config(std::size_t rounds, std::size_t k) const {
        CoordinatorConfig cc;
        cc.rounds = rounds;
        cc.winners_per_round = k;
        cc.local_epochs = 1;
        cc.batch_size = 16;
        cc.learning_rate = 0.08;
        return cc;
    }

    ml::Dataset train_;
    ml::Dataset test_;
    std::vector<ml::ClientShard> shards_;
};

TEST_F(CoordinatorTest, RunProducesPerRoundMetrics) {
    ml::Model model = reference::make_mlp(ml::ImageSpec{1, 12, 12, 10}, 3);
    Coordinator coordinator(model, train_, test_, shards_, config(4, 4));
    RandomSelector selector(10);
    stats::Rng rng(4);
    const RunResult result = coordinator.run(selector, rng);
    ASSERT_EQ(result.rounds.size(), 4u);
    for (std::size_t r = 0; r < 4; ++r) {
        EXPECT_EQ(result.rounds[r].round, r + 1);
        EXPECT_GE(result.rounds[r].test_accuracy, 0.0);
        EXPECT_LE(result.rounds[r].test_accuracy, 1.0);
        EXPECT_GT(result.rounds[r].test_loss, 0.0);
        EXPECT_EQ(result.rounds[r].selection.selected.size(), 4u);
    }
}

TEST_F(CoordinatorTest, LearningActuallyHappens) {
    ml::Model model = reference::make_mlp(ml::ImageSpec{1, 12, 12, 10}, 5);
    Coordinator coordinator(model, train_, test_, shards_, config(10, 6));
    RandomSelector selector(10);
    stats::Rng rng(6);
    const RunResult result = coordinator.run(selector, rng);
    EXPECT_GT(result.final_accuracy(), 0.5);
    EXPECT_LT(result.rounds.back().test_loss, result.rounds.front().test_loss);
}

TEST_F(CoordinatorTest, TrainSampleCapIsHonoured) {
    // A selector that caps training at 5 samples per winner: FedAvg weights
    // and the time-model sample counts must reflect the cap.
    class CappingSelector final : public ClientSelector {
    public:
        SelectionRecord select(std::size_t, std::size_t k, stats::Rng&) override {
            SelectionRecord record;
            for (std::size_t i = 0; i < k; ++i) {
                record.selected.push_back(SelectedClient{i, 0.0, 0.0, 5});
            }
            return record;
        }
        [[nodiscard]] std::string name() const override { return "capping"; }
    };

    ml::Model model = reference::make_mlp(ml::ImageSpec{1, 12, 12, 10}, 7);
    Coordinator coordinator(model, train_, test_, shards_, config(1, 3));
    CappingSelector selector;
    stats::Rng rng(8);
    std::vector<std::size_t> observed;
    const RoundTimeModel time_model =
        [&observed](const SelectionRecord&, const std::vector<std::size_t>& samples) {
            observed = samples;
            return 1.0;
        };
    const RunResult result = coordinator.run(selector, rng, time_model);
    ASSERT_EQ(observed.size(), 3u);
    for (const std::size_t s : observed) EXPECT_EQ(s, 5u);
    EXPECT_DOUBLE_EQ(result.rounds[0].round_seconds, 1.0);
}

TEST_F(CoordinatorTest, TimeModelOptional) {
    ml::Model model = reference::make_mlp(ml::ImageSpec{1, 12, 12, 10}, 9);
    Coordinator coordinator(model, train_, test_, shards_, config(2, 2));
    RandomSelector selector(10);
    stats::Rng rng(10);
    const RunResult result = coordinator.run(selector, rng);
    EXPECT_DOUBLE_EQ(result.rounds[0].round_seconds, 0.0);
    EXPECT_DOUBLE_EQ(result.total_seconds(), 0.0);
}

TEST_F(CoordinatorTest, RejectsInvalidConstruction) {
    ml::Model model = reference::make_mlp(ml::ImageSpec{1, 12, 12, 10}, 11);
    EXPECT_THROW(Coordinator(model, train_, test_, {}, config(2, 2)),
                 std::invalid_argument);
    CoordinatorConfig bad = config(0, 2);
    EXPECT_THROW(Coordinator(model, train_, test_, shards_, bad), std::invalid_argument);
    bad = config(2, 0);
    EXPECT_THROW(Coordinator(model, train_, test_, shards_, bad), std::invalid_argument);
    // An empty test set would record NaN accuracy and loss every round.
    ml::Dataset empty_test;
    empty_test.sample_shape = test_.sample_shape;
    empty_test.num_classes = test_.num_classes;
    EXPECT_THROW(Coordinator(model, train_, empty_test, shards_, config(2, 2)),
                 std::invalid_argument);
}

TEST_F(CoordinatorTest, SelectorPickingUnknownClientIsAnError) {
    class RogueSelector final : public ClientSelector {
    public:
        SelectionRecord select(std::size_t, std::size_t, stats::Rng&) override {
            SelectionRecord record;
            record.selected.push_back(SelectedClient{9999, 0.0, 0.0, std::nullopt});
            return record;
        }
        [[nodiscard]] std::string name() const override { return "rogue"; }
    };
    ml::Model model = reference::make_mlp(ml::ImageSpec{1, 12, 12, 10}, 13);
    Coordinator coordinator(model, train_, test_, shards_, config(1, 1));
    RogueSelector selector;
    stats::Rng rng(14);
    EXPECT_THROW(coordinator.run(selector, rng), std::out_of_range);
}

TEST_F(CoordinatorTest, EvalCapLimitsEvaluationSet) {
    ml::Model model = reference::make_mlp(ml::ImageSpec{1, 12, 12, 10}, 15);
    CoordinatorConfig cc = config(1, 2);
    cc.eval_cap = 10;
    Coordinator coordinator(model, train_, test_, shards_, cc);
    RandomSelector selector(10);
    stats::Rng rng(16);
    const RunResult result = coordinator.run(selector, rng);
    // Accuracy over 10 samples is a multiple of 0.1.
    const double acc = result.rounds[0].test_accuracy;
    EXPECT_NEAR(acc * 10.0, std::round(acc * 10.0), 1e-9);
}

} // namespace
} // namespace fmore::fl

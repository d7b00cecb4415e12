#include <gtest/gtest.h>

#include "fmore/mec/cluster.hpp"
#include "fmore/ml/synthetic.hpp"

namespace fmore::mec {
namespace {

class ClusterTest : public ::testing::Test {
protected:
    ClusterTest() : theta_(0.5, 1.5) {
        stats::Rng rng(1);
        ml::ImageDatasetSpec spec;
        spec.samples = 300;
        const ml::Dataset data = ml::make_synthetic_images(spec, rng);
        stats::Rng prng(2);
        shards_ = ml::partition_iid(data, 6, prng);
        PopulationSpec pop_spec;
        pop_spec.bandwidth_lo = 100.0;
        pop_spec.bandwidth_hi = 100.0001; // pin bandwidth for determinism
        pop_spec.cpu_lo = 4.0;
        pop_spec.cpu_hi = 4.0001;
        stats::Rng pop_rng(3);
        population_ = std::make_unique<MecPopulation>(shards_, 10, theta_, pop_spec, pop_rng);
    }

    fl::SelectionRecord select(std::initializer_list<std::size_t> ids) const {
        fl::SelectionRecord record;
        for (const std::size_t id : ids) {
            record.selected.push_back(fl::SelectedClient{id, 0.0, 0.0, std::nullopt});
        }
        return record;
    }

    stats::UniformDistribution theta_;
    std::vector<ml::ClientShard> shards_;
    std::unique_ptr<MecPopulation> population_;
};

TEST_F(ClusterTest, RoundTimeIsMaxOverWinnersPlusOverhead) {
    ClusterTimeConfig cfg;
    cfg.model_bytes = 1.25e6; // 10 Mbit -> 0.1 s each way at 100 Mbps (x2)
    cfg.seconds_per_sample_core = 0.004;
    cfg.round_overhead_s = 1.0;
    cfg.auction_overhead_s = 0.0;
    const ClusterTimeModel model(*population_, cfg, /*auction_round=*/false);

    // One winner: transfer + compute from its *current* resources (nodes
    // start somewhere inside their envelope) + overhead.
    const ResourceState r0 = population_->store().resources(0);
    const double expected = 1.0 + 2.0 * cfg.model_bytes / (r0.bandwidth_mbps * 1.0e6 / 8.0)
                            + 100.0 * cfg.seconds_per_sample_core / r0.cpu_cores;
    const double t1 = model.round_seconds(select({0}), {100});
    EXPECT_NEAR(t1, expected, 0.01);

    // Adding a second, lighter winner must not increase the round beyond
    // the slower one.
    const double t2 = model.round_seconds(select({0, 1}), {100, 10});
    EXPECT_NEAR(t2, t1, 0.01);

    // A heavier second winner dominates.
    const double t3 = model.round_seconds(select({0, 1}), {100, 400});
    EXPECT_GT(t3, t1);
}

TEST_F(ClusterTest, AuctionOverheadAppliesOnlyToAuctionRounds) {
    ClusterTimeConfig cfg;
    cfg.auction_overhead_s = 0.5;
    const ClusterTimeModel plain(*population_, cfg, false);
    const ClusterTimeModel auction(*population_, cfg, true);
    const double tp = plain.round_seconds(select({0}), {50});
    const double ta = auction.round_seconds(select({0}), {50});
    EXPECT_NEAR(ta - tp, 0.5, 1e-9);
}

TEST_F(ClusterTest, AsTimeModelAdapterMatchesDirectCall) {
    ClusterTimeConfig cfg;
    const ClusterTimeModel model(*population_, cfg, false);
    const auto adapter = model.as_time_model();
    const auto record = select({2, 3});
    const std::vector<std::size_t> samples{40, 60};
    EXPECT_DOUBLE_EQ(adapter(record, samples), model.round_seconds(record, samples));
}

TEST_F(ClusterTest, SlowerBandwidthMeansLongerRounds) {
    // Rebuild a population with low bandwidth and compare.
    PopulationSpec slow_spec;
    slow_spec.bandwidth_lo = 10.0;
    slow_spec.bandwidth_hi = 10.0001;
    slow_spec.cpu_lo = 4.0;
    slow_spec.cpu_hi = 4.0001;
    stats::Rng rng(5);
    const MecPopulation slow_pop(shards_, 10, theta_, slow_spec, rng);
    ClusterTimeConfig cfg;
    cfg.model_bytes = 1.25e7;
    const ClusterTimeModel fast(*population_, cfg, false);
    const ClusterTimeModel slow(slow_pop, cfg, false);
    EXPECT_GT(slow.round_seconds(select({0}), {50}),
              fast.round_seconds(select({0}), {50}));
}

TEST_F(ClusterTest, RejectsNonPositiveModelBytes) {
    ClusterTimeConfig cfg;
    cfg.model_bytes = 0.0;
    EXPECT_THROW(ClusterTimeModel(*population_, cfg, false), std::invalid_argument);
}

// ---------------------------------------------------------------------------
// Straggler model (latency factors, per-client clock, dropouts)
// ---------------------------------------------------------------------------

TEST_F(ClusterTest, ZeroLatencySpreadKeepsFactorsExactlyOne) {
    ClusterTimeConfig cfg;
    stats::Rng factor_rng(9);
    const ClusterTimeModel model(*population_, cfg, false, factor_rng);
    const std::uint64_t untouched = stats::Rng(9).engine()();
    EXPECT_EQ(factor_rng.engine()(), untouched) << "spread 0 must not consume RNG";
    for (std::size_t i = 0; i < population_->size(); ++i) {
        EXPECT_EQ(model.latency_factor(i), 1.0);
    }
}

TEST_F(ClusterTest, LatencyFactorsAreDeterministicAndHeterogeneous) {
    ClusterTimeConfig cfg;
    cfg.latency_spread = 1.0;
    stats::Rng rng_a(9);
    stats::Rng rng_b(9);
    const ClusterTimeModel a(*population_, cfg, false, rng_a);
    const ClusterTimeModel b(*population_, cfg, false, rng_b);
    bool heterogeneous = false;
    for (std::size_t i = 0; i < population_->size(); ++i) {
        EXPECT_EQ(a.latency_factor(i), b.latency_factor(i));
        EXPECT_GT(a.latency_factor(i), 0.0);
        if (a.latency_factor(i) != a.latency_factor(0)) heterogeneous = true;
    }
    EXPECT_TRUE(heterogeneous);
}

TEST_F(ClusterTest, ClientSecondsScaleWithTheStragglerFactor) {
    ClusterTimeConfig cfg;
    cfg.latency_spread = 0.8;
    stats::Rng factor_rng(11);
    const ClusterTimeModel straggly(*population_, cfg, false, factor_rng);
    const ClusterTimeModel flat(*population_, ClusterTimeConfig{}, false);
    for (std::size_t i = 0; i < population_->size(); ++i) {
        EXPECT_DOUBLE_EQ(straggly.client_seconds(i, 80),
                         straggly.latency_factor(i) * flat.client_seconds(i, 80));
    }
}

TEST_F(ClusterTest, SyncRoundSecondsHonourStragglerFactors) {
    // The synchronous barrier pays the straggler tail: the round equals the
    // slowest factor-scaled client, not the raw slowest.
    ClusterTimeConfig cfg;
    cfg.latency_spread = 1.5;
    cfg.round_overhead_s = 0.0;
    stats::Rng factor_rng(13);
    const ClusterTimeModel model(*population_, cfg, false, factor_rng);
    const auto record = select({0, 1, 2, 3, 4, 5});
    const std::vector<std::size_t> samples(6, 50);
    double slowest = 0.0;
    for (std::size_t i = 0; i < 6; ++i) {
        slowest = std::max(slowest, model.client_seconds(i, 50));
    }
    EXPECT_DOUBLE_EQ(model.round_seconds(record, samples), slowest);
}

TEST_F(ClusterTest, ClientTimeModelAdapterDrawsDropoutsOnlyWhenEnabled) {
    ClusterTimeConfig cfg;
    const ClusterTimeModel reliable(*population_, cfg, false);
    stats::Rng rng(21);
    const auto clock = reliable.as_client_time_model();
    const fl::DispatchTiming t = clock(0, 50, rng);
    EXPECT_FALSE(t.dropped);
    EXPECT_DOUBLE_EQ(t.seconds, reliable.client_seconds(0, 50));
    EXPECT_EQ(rng.engine()(), stats::Rng(21).engine()())
        << "dropout_prob 0 must not consume the round RNG";

    cfg.dropout_prob = 0.9999; // not 1.0 — that is rejected outright
    const ClusterTimeModel flaky(*population_, cfg, false);
    const auto flaky_clock = flaky.as_client_time_model();
    stats::Rng drop_rng(22);
    std::size_t drops = 0;
    for (int i = 0; i < 50; ++i) {
        if (flaky_clock(0, 50, drop_rng).dropped) ++drops;
    }
    EXPECT_GT(drops, 40u);
}

TEST_F(ClusterTest, RejectsBadStragglerKnobs) {
    ClusterTimeConfig cfg;
    cfg.latency_spread = -0.1;
    EXPECT_THROW(ClusterTimeModel(*population_, cfg, false), std::invalid_argument);
    cfg.latency_spread = 0.0;
    cfg.dropout_prob = 1.0;
    EXPECT_THROW(ClusterTimeModel(*population_, cfg, false), std::invalid_argument);
}

} // namespace
} // namespace fmore::mec

#include <gtest/gtest.h>

#include "fmore/mec/population.hpp"
#include "fmore/ml/synthetic.hpp"

namespace fmore::mec {
namespace {

std::vector<ml::ClientShard> make_shards(std::size_t clients) {
    stats::Rng rng(1);
    ml::ImageDatasetSpec spec;
    spec.samples = clients * 40;
    const ml::Dataset data = ml::make_synthetic_images(spec, rng);
    stats::Rng prng(2);
    return ml::partition_non_iid_variable(data, clients, 1, 4, prng);
}

TEST(MecPopulation, NodesMirrorShardData) {
    const auto shards = make_shards(20);
    const stats::UniformDistribution theta(0.5, 1.5);
    PopulationSpec spec;
    stats::Rng rng(3);
    const MecPopulation pop(shards, 10, theta, spec, rng);
    ASSERT_EQ(pop.size(), 20u);
    const PopulationStore& store = pop.store();
    EXPECT_EQ(store.node_offset(), 0u);
    for (std::size_t i = 0; i < 20; ++i) {
        EXPECT_DOUBLE_EQ(store.caps(i).data_size,
                         static_cast<double>(shards[i].indices.size()));
        EXPECT_NEAR(store.caps(i).category_proportion,
                    shards[i].category_proportion(10), 1e-12);
        EXPECT_GE(store.theta(i), 0.5);
        EXPECT_LE(store.theta(i), 1.5);
    }
}

TEST(MecPopulation, ResourceRangesRespected) {
    const auto shards = make_shards(30);
    const stats::UniformDistribution theta(0.5, 1.5);
    PopulationSpec spec;
    spec.bandwidth_lo = 50.0;
    spec.bandwidth_hi = 100.0;
    spec.cpu_lo = 2.0;
    spec.cpu_hi = 4.0;
    stats::Rng rng(4);
    const MecPopulation pop(shards, 10, theta, spec, rng);
    const PopulationStore& store = pop.store();
    for (std::size_t i = 0; i < store.size(); ++i) {
        const ResourceState caps = store.caps(i);
        EXPECT_GE(caps.bandwidth_mbps, 50.0);
        EXPECT_LE(caps.bandwidth_mbps, 100.0);
        EXPECT_GE(caps.cpu_cores, 2.0);
        EXPECT_LE(caps.cpu_cores, 4.0);
        EXPECT_LE(store.resources(i).bandwidth_mbps, caps.bandwidth_mbps);
    }
}

TEST(MecPopulation, EvolveAdvancesAllNodes) {
    const auto shards = make_shards(10);
    const stats::UniformDistribution theta(0.5, 1.5);
    PopulationSpec spec;
    spec.dynamics.resource_jitter = 0.2;
    stats::Rng rng(5);
    MecPopulation pop(shards, 10, theta, spec, rng);
    const std::vector<double> before = pop.store().column(ResourceDim::bandwidth);
    stats::Rng ev(6);
    pop.evolve(ev);
    int moved = 0;
    for (std::size_t i = 0; i < pop.size(); ++i) {
        if (pop.store().bandwidth_mbps(i) != before[i]) ++moved;
    }
    EXPECT_GT(moved, 5);
}

TEST(MecPopulation, RejectsEmptyShards) {
    const stats::UniformDistribution theta(0.5, 1.5);
    PopulationSpec spec;
    stats::Rng rng(7);
    EXPECT_THROW(MecPopulation({}, 10, theta, spec, rng), std::invalid_argument);
}

} // namespace
} // namespace fmore::mec

#include <gtest/gtest.h>

#include "fmore/reference/edge_node.hpp"

namespace fmore::mec {
namespace {

using reference::EdgeNode;

ResourceState caps() {
    ResourceState r;
    r.data_size = 100.0;
    r.category_proportion = 0.8;
    r.bandwidth_mbps = 500.0;
    r.cpu_cores = 8.0;
    return r;
}

TEST(EdgeNode, InitialStateClampedToCaps) {
    ResourceState initial = caps();
    initial.bandwidth_mbps = 900.0; // above cap
    const EdgeNode node(3, 1.0, initial, caps());
    EXPECT_EQ(node.id(), 3u);
    EXPECT_DOUBLE_EQ(node.theta(), 1.0);
    EXPECT_DOUBLE_EQ(node.resources().bandwidth_mbps, 500.0);
}

TEST(EdgeNode, EvolveKeepsResourcesInsideEnvelope) {
    EdgeNode node(0, 1.0, caps(), caps());
    ResourceDynamics dyn;
    dyn.resource_jitter = 0.2;
    dyn.theta_jitter = 0.1;
    stats::Rng rng(1);
    for (int r = 0; r < 200; ++r) {
        node.evolve(dyn, 0.5, 1.5, rng);
        EXPECT_LE(node.resources().bandwidth_mbps, caps().bandwidth_mbps + 1e-9);
        EXPECT_GE(node.resources().bandwidth_mbps, 0.0);
        EXPECT_LE(node.resources().cpu_cores, caps().cpu_cores + 1e-9);
        EXPECT_LE(node.resources().data_size, caps().data_size + 1e-9);
        EXPECT_GE(node.theta(), 0.5);
        EXPECT_LE(node.theta(), 1.5);
    }
}

TEST(EdgeNode, ZeroJitterFreezesResources) {
    EdgeNode node(0, 1.0, caps(), caps());
    ResourceDynamics dyn;
    dyn.resource_jitter = 0.0;
    dyn.theta_jitter = 0.0;
    stats::Rng rng(2);
    const ResourceState before = node.resources();
    node.evolve(dyn, 0.5, 1.5, rng);
    EXPECT_DOUBLE_EQ(node.resources().bandwidth_mbps, before.bandwidth_mbps);
    EXPECT_DOUBLE_EQ(node.resources().cpu_cores, before.cpu_cores);
    EXPECT_DOUBLE_EQ(node.theta(), 1.0);
}

TEST(EdgeNode, ResourcesActuallyDrift) {
    EdgeNode node(0, 1.0, caps(), caps());
    ResourceDynamics dyn;
    dyn.resource_jitter = 0.15;
    stats::Rng rng(3);
    const double before = node.resources().bandwidth_mbps;
    bool moved = false;
    for (int r = 0; r < 10 && !moved; ++r) {
        node.evolve(dyn, 0.5, 1.5, rng);
        moved = node.resources().bandwidth_mbps != before;
    }
    EXPECT_TRUE(moved);
}

TEST(EdgeNode, ThetaJitterRequiresValidBounds) {
    EdgeNode node(0, 1.0, caps(), caps());
    ResourceDynamics dyn;
    dyn.theta_jitter = 0.1;
    stats::Rng rng(4);
    EXPECT_THROW(node.evolve(dyn, 1.5, 0.5, rng), std::invalid_argument);
}

} // namespace
} // namespace fmore::mec

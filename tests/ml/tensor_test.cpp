#include <gtest/gtest.h>

#include <cmath>

#include "fmore/ml/tensor.hpp"

namespace fmore::ml {
namespace {

TEST(Tensor, ZeroInitialized) {
    const Tensor t({2, 3});
    EXPECT_EQ(t.size(), 6u);
    EXPECT_EQ(t.rank(), 2u);
    for (std::size_t i = 0; i < t.size(); ++i) EXPECT_EQ(t[i], 0.0F);
}

TEST(Tensor, ShapeAccessors) {
    const Tensor t({4, 1, 5});
    EXPECT_EQ(t.dim(0), 4u);
    EXPECT_EQ(t.dim(2), 5u);
    EXPECT_THROW((void)t.dim(3), std::out_of_range);
}

TEST(Tensor, ConstructFromData) {
    const Tensor t({2, 2}, {1.0F, 2.0F, 3.0F, 4.0F});
    EXPECT_EQ(t[3], 4.0F);
    EXPECT_THROW(Tensor({2, 2}, {1.0F}), std::invalid_argument);
}

TEST(Tensor, ReshapePreservesData) {
    Tensor t({2, 3});
    for (std::size_t i = 0; i < 6; ++i) t[i] = static_cast<float>(i);
    const Tensor r = t.reshaped({3, 2});
    EXPECT_EQ(r.dim(0), 3u);
    for (std::size_t i = 0; i < 6; ++i) EXPECT_EQ(r[i], static_cast<float>(i));
    EXPECT_THROW(t.reshaped({5}), std::invalid_argument);
}

TEST(Tensor, FillAndFiniteCheck) {
    Tensor t({3});
    t.fill(2.5F);
    EXPECT_TRUE(t.all_finite());
    t[1] = std::numeric_limits<float>::quiet_NaN();
    EXPECT_FALSE(t.all_finite());
    t[1] = std::numeric_limits<float>::infinity();
    EXPECT_FALSE(t.all_finite());
}

TEST(Tensor, ShapeVolume) {
    EXPECT_EQ(shape_volume({}), 1u);
    EXPECT_EQ(shape_volume({7}), 7u);
    EXPECT_EQ(shape_volume({2, 3, 4}), 24u);
}

} // namespace
} // namespace fmore::ml

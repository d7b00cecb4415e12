#include <gtest/gtest.h>

#include <cmath>

#include "fmore/reference/numeric.hpp"

namespace fmore::reference {
namespace {

TEST(Bisect, FindsSimpleRoot) {
    const auto root = bisect([](double x) { return x * x - 2.0; }, 0.0, 2.0);
    ASSERT_TRUE(root.has_value());
    EXPECT_NEAR(*root, std::sqrt(2.0), 1e-9);
}

TEST(Bisect, ReturnsNulloptWithoutSignChange) {
    const auto root = bisect([](double x) { return x * x + 1.0; }, -1.0, 1.0);
    EXPECT_FALSE(root.has_value());
}

TEST(Bisect, ExactRootAtEndpoint) {
    const auto root = bisect([](double x) { return x; }, 0.0, 1.0);
    ASSERT_TRUE(root.has_value());
    EXPECT_DOUBLE_EQ(*root, 0.0);
}

TEST(Brent, FindsTranscendentalRoot) {
    const auto root = brent([](double x) { return std::cos(x) - x; }, 0.0, 1.0);
    ASSERT_TRUE(root.has_value());
    EXPECT_NEAR(*root, 0.7390851332151607, 1e-9);
}

TEST(Brent, AgreesWithBisect) {
    const auto f = [](double x) { return std::exp(x) - 3.0; };
    const auto rb = bisect(f, 0.0, 2.0);
    const auto rr = brent(f, 0.0, 2.0);
    ASSERT_TRUE(rb.has_value());
    ASSERT_TRUE(rr.has_value());
    EXPECT_NEAR(*rb, *rr, 1e-8);
    EXPECT_NEAR(*rr, std::log(3.0), 1e-9);
}

TEST(Brent, NoSignChangeReturnsNullopt) {
    EXPECT_FALSE(brent([](double) { return 1.0; }, 0.0, 1.0).has_value());
}

TEST(Brent, SteepFunction) {
    const auto root = brent([](double x) { return std::pow(x, 9) - 0.5; }, 0.0, 1.0);
    ASSERT_TRUE(root.has_value());
    EXPECT_NEAR(std::pow(*root, 9), 0.5, 1e-8);
}

TEST(Bisect, InvertedBoundsThrow) {
    EXPECT_THROW(bisect([](double x) { return x; }, 1.0, 0.0), std::invalid_argument);
}

} // namespace
} // namespace fmore::reference

#include <gtest/gtest.h>

#include <cmath>

#include "fmore/reference/numeric.hpp"

namespace fmore::reference {
namespace {

// y' = y, y(0) = 1 -> y(1) = e.
TEST(Euler, ExponentialGrowthConverges) {
    const OdeRhs f = [](double, double y) { return y; };
    const double coarse = euler_final(f, 0.0, 1.0, 1.0, 50);
    const double fine = euler_final(f, 0.0, 1.0, 1.0, 5000);
    EXPECT_NEAR(fine, std::exp(1.0), 5e-4);
    EXPECT_LT(std::fabs(fine - std::exp(1.0)), std::fabs(coarse - std::exp(1.0)));
}

TEST(Euler, FirstOrderErrorScaling) {
    const OdeRhs f = [](double, double y) { return y; };
    const double e1 = std::fabs(euler_final(f, 0.0, 1.0, 1.0, 100) - std::exp(1.0));
    const double e2 = std::fabs(euler_final(f, 0.0, 1.0, 1.0, 200) - std::exp(1.0));
    // Halving h should roughly halve the error (global order 1).
    EXPECT_NEAR(e1 / e2, 2.0, 0.2);
}

TEST(RungeKutta4, MuchMoreAccurateThanEuler) {
    const OdeRhs f = [](double x, double y) { return std::sin(x) - 0.3 * y; };
    const double reference = runge_kutta4_final(f, 0.0, 4.0, 1.0, 20000);
    const double rk = runge_kutta4_final(f, 0.0, 4.0, 1.0, 64);
    const double eu = euler_final(f, 0.0, 4.0, 1.0, 64);
    EXPECT_LT(std::fabs(rk - reference), std::fabs(eu - reference));
    EXPECT_NEAR(rk, reference, 1e-6);
}

TEST(RungeKutta4, FourthOrderErrorScaling) {
    const OdeRhs f = [](double, double y) { return y; };
    const double e1 = std::fabs(runge_kutta4_final(f, 0.0, 1.0, 1.0, 10) - std::exp(1.0));
    const double e2 = std::fabs(runge_kutta4_final(f, 0.0, 1.0, 1.0, 20) - std::exp(1.0));
    EXPECT_NEAR(e1 / e2, 16.0, 4.0);
}

TEST(OdeSolvers, BackwardIntegration) {
    // y' = 1 integrated from 1 to 0 should subtract 1.
    const OdeRhs f = [](double, double) { return 1.0; };
    EXPECT_NEAR(euler_final(f, 1.0, 0.0, 5.0, 100), 4.0, 1e-12);
    EXPECT_NEAR(runge_kutta4_final(f, 1.0, 0.0, 5.0, 100), 4.0, 1e-12);
}

TEST(OdeSolvers, TrajectoryHasExpectedShape) {
    const OdeRhs f = [](double, double) { return 2.0; };
    const auto traj = euler(f, 0.0, 1.0, 0.0, 4);
    ASSERT_EQ(traj.size(), 5u);
    EXPECT_DOUBLE_EQ(traj.front().x, 0.0);
    EXPECT_DOUBLE_EQ(traj.back().x, 1.0);
    EXPECT_NEAR(traj.back().y, 2.0, 1e-12);
    EXPECT_NEAR(traj[2].y, 1.0, 1e-12);
}

TEST(OdeSolvers, ZeroStepsRejected) {
    const OdeRhs f = [](double, double) { return 0.0; };
    EXPECT_THROW(euler(f, 0.0, 1.0, 0.0, 0), std::invalid_argument);
    EXPECT_THROW(runge_kutta4(f, 0.0, 1.0, 0.0, 0), std::invalid_argument);
}

// The exact linear ODE the paper's payment derivation produces (Eq. 12):
// b' + phi(u) b = u phi(u) with phi constant has solution
// b(u) = u - 1/phi + C exp(-phi u).
TEST(OdeSolvers, PaperLinearFormAgainstClosedForm) {
    const double phi = 3.0;
    const OdeRhs f = [phi](double u, double b) { return (u - b) * phi; };
    const double b0 = 0.0;
    const double c_const = (b0 - (0.0 - 1.0 / phi)); // at u=0
    auto closed = [&](double u) { return u - 1.0 / phi + c_const * std::exp(-phi * u); };
    EXPECT_NEAR(euler_final(f, 0.0, 2.0, b0, 4000), closed(2.0), 1e-3);
    EXPECT_NEAR(runge_kutta4_final(f, 0.0, 2.0, b0, 200), closed(2.0), 1e-8);
}

} // namespace
} // namespace fmore::reference

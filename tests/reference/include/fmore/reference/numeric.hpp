#pragma once

/// @file numeric.hpp
/// Classic numerical methods no production path calls: the Euler and
/// fourth-order Runge-Kutta integrators the paper names for solving the
/// equilibrium payment ODE (Section IV, Eq. 13-14), bisection and Brent root
/// finding, and Simpson's rule. The equilibrium solver integrates its own
/// ODE inline on its grid; these stay outside the libraries as independent
/// methods an oracle of Theorem 1 can use without sharing code with it.

#include <cstddef>
#include <functional>
#include <optional>
#include <vector>

#include "fmore/numeric/quadrature.hpp"

namespace fmore::reference {

/// Right-hand side of a scalar first-order ODE y' = f(x, y).
using OdeRhs = std::function<double(double x, double y)>;

/// One (x, y) sample of an ODE trajectory.
struct OdePoint {
    double x;
    double y;
};

/// Explicit (forward) Euler integration of y' = f(x, y) from x0 to x1 with
/// `steps` uniform steps, starting at y(x0) = y0. The returned trajectory
/// has steps+1 points including both ends. x1 may be smaller than x0
/// (integration runs backwards).
std::vector<OdePoint> euler(const OdeRhs& f, double x0, double x1, double y0,
                            std::size_t steps);

/// Classic fourth-order Runge-Kutta with the same interface.
std::vector<OdePoint> runge_kutta4(const OdeRhs& f, double x0, double x1, double y0,
                                   std::size_t steps);

/// Convenience: final value only.
double euler_final(const OdeRhs& f, double x0, double x1, double y0, std::size_t steps);
double runge_kutta4_final(const OdeRhs& f, double x0, double x1, double y0,
                          std::size_t steps);

/// Bisection root of f on [lo, hi]; requires a sign change. Returns nullopt
/// if f(lo) and f(hi) have the same sign.
std::optional<double> bisect(const std::function<double(double)>& f, double lo, double hi,
                             double tol = 1e-12, std::size_t max_iter = 200);

/// Brent's method: inverse-quadratic interpolation with bisection fallback.
/// Same contract as `bisect`, converges much faster on smooth functions.
std::optional<double> brent(const std::function<double(double)>& f, double lo, double hi,
                            double tol = 1e-12, std::size_t max_iter = 200);

/// Composite Simpson rule over [a, b]; `panels` is rounded up to even.
double simpson(const numeric::Integrand& f, double a, double b, std::size_t panels);

} // namespace fmore::reference

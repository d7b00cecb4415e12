#pragma once

#include <functional>
#include <vector>

namespace fmore::numeric {

using Integrand = std::function<double(double)>;

/// Composite trapezoid rule over [a, b] with `panels` uniform panels.
/// a may exceed b; the result is signed like a Riemann integral.
double trapezoid(const Integrand& f, double a, double b, std::size_t panels);

/// Trapezoid rule over pre-tabulated samples (x ascending). This is what the
/// equilibrium solver uses: the integrand is only known on the theta grid.
double trapezoid_tabulated(const std::vector<double>& xs, const std::vector<double>& ys);

/// Cumulative trapezoid: out[i] = integral from xs[0] to xs[i]. out[0] = 0.
std::vector<double> cumulative_trapezoid(const std::vector<double>& xs,
                                         const std::vector<double>& ys);

} // namespace fmore::numeric

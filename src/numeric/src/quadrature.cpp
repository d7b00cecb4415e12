#include "fmore/numeric/quadrature.hpp"

#include <stdexcept>

namespace fmore::numeric {

double trapezoid(const Integrand& f, double a, double b, std::size_t panels) {
    if (panels == 0) throw std::invalid_argument("trapezoid: panels must be > 0");
    const double h = (b - a) / static_cast<double>(panels);
    double total = 0.5 * (f(a) + f(b));
    for (std::size_t i = 1; i < panels; ++i) {
        total += f(a + static_cast<double>(i) * h);
    }
    return total * h;
}

double trapezoid_tabulated(const std::vector<double>& xs, const std::vector<double>& ys) {
    if (xs.size() != ys.size())
        throw std::invalid_argument("trapezoid_tabulated: size mismatch");
    if (xs.size() < 2)
        throw std::invalid_argument("trapezoid_tabulated: need at least 2 samples");
    double total = 0.0;
    for (std::size_t i = 1; i < xs.size(); ++i) {
        total += 0.5 * (ys[i] + ys[i - 1]) * (xs[i] - xs[i - 1]);
    }
    return total;
}

std::vector<double> cumulative_trapezoid(const std::vector<double>& xs,
                                         const std::vector<double>& ys) {
    if (xs.size() != ys.size())
        throw std::invalid_argument("cumulative_trapezoid: size mismatch");
    if (xs.empty()) return {};
    std::vector<double> out(xs.size(), 0.0);
    for (std::size_t i = 1; i < xs.size(); ++i) {
        out[i] = out[i - 1] + 0.5 * (ys[i] + ys[i - 1]) * (xs[i] - xs[i - 1]);
    }
    return out;
}

} // namespace fmore::numeric

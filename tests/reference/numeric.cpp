#include "fmore/reference/numeric.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <utility>

namespace fmore::reference {

std::vector<OdePoint> euler(const OdeRhs& f, double x0, double x1, double y0,
                            std::size_t steps) {
    if (steps == 0) throw std::invalid_argument("euler: steps must be > 0");
    std::vector<OdePoint> out;
    out.reserve(steps + 1);
    const double h = (x1 - x0) / static_cast<double>(steps);
    double x = x0;
    double y = y0;
    out.push_back({x, y});
    for (std::size_t i = 0; i < steps; ++i) {
        y += h * f(x, y);
        x = x0 + static_cast<double>(i + 1) * h;
        out.push_back({x, y});
    }
    return out;
}

std::vector<OdePoint> runge_kutta4(const OdeRhs& f, double x0, double x1, double y0,
                                   std::size_t steps) {
    if (steps == 0) throw std::invalid_argument("runge_kutta4: steps must be > 0");
    std::vector<OdePoint> out;
    out.reserve(steps + 1);
    const double h = (x1 - x0) / static_cast<double>(steps);
    double x = x0;
    double y = y0;
    out.push_back({x, y});
    for (std::size_t i = 0; i < steps; ++i) {
        const double k1 = f(x, y);
        const double k2 = f(x + 0.5 * h, y + 0.5 * h * k1);
        const double k3 = f(x + 0.5 * h, y + 0.5 * h * k2);
        const double k4 = f(x + h, y + h * k3);
        y += (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4);
        x = x0 + static_cast<double>(i + 1) * h;
        out.push_back({x, y});
    }
    return out;
}

double euler_final(const OdeRhs& f, double x0, double x1, double y0, std::size_t steps) {
    return euler(f, x0, x1, y0, steps).back().y;
}

double runge_kutta4_final(const OdeRhs& f, double x0, double x1, double y0,
                          std::size_t steps) {
    return runge_kutta4(f, x0, x1, y0, steps).back().y;
}

std::optional<double> bisect(const std::function<double(double)>& f, double lo, double hi,
                             double tol, std::size_t max_iter) {
    if (!(lo <= hi)) throw std::invalid_argument("bisect: lo > hi");
    double fa = f(lo);
    double fb = f(hi);
    if (fa == 0.0) return lo;
    if (fb == 0.0) return hi;
    if ((fa > 0.0) == (fb > 0.0)) return std::nullopt;
    double a = lo;
    double b = hi;
    for (std::size_t it = 0; it < max_iter && (b - a) > tol; ++it) {
        const double mid = 0.5 * (a + b);
        const double fm = f(mid);
        if (fm == 0.0) return mid;
        if ((fm > 0.0) == (fa > 0.0)) {
            a = mid;
            fa = fm;
        } else {
            b = mid;
        }
    }
    return 0.5 * (a + b);
}

std::optional<double> brent(const std::function<double(double)>& f, double lo, double hi,
                            double tol, std::size_t max_iter) {
    double a = lo;
    double b = hi;
    double fa = f(a);
    double fb = f(b);
    if (fa == 0.0) return a;
    if (fb == 0.0) return b;
    if ((fa > 0.0) == (fb > 0.0)) return std::nullopt;
    if (std::fabs(fa) < std::fabs(fb)) {
        std::swap(a, b);
        std::swap(fa, fb);
    }
    double c = a;
    double fc = fa;
    bool used_bisection = true;
    double d = 0.0;
    for (std::size_t it = 0; it < max_iter; ++it) {
        if (fb == 0.0 || std::fabs(b - a) < tol) return b;
        double s;
        if (fa != fc && fb != fc) {
            // Inverse quadratic interpolation.
            s = a * fb * fc / ((fa - fb) * (fa - fc)) + b * fa * fc / ((fb - fa) * (fb - fc))
                + c * fa * fb / ((fc - fa) * (fc - fb));
        } else {
            // Secant step.
            s = b - fb * (b - a) / (fb - fa);
        }
        const double lo_bound = (3.0 * a + b) / 4.0;
        const bool out_of_range = !((s > std::min(lo_bound, b)) && (s < std::max(lo_bound, b)));
        const bool slow_prev = used_bisection ? std::fabs(s - b) >= std::fabs(b - c) / 2.0
                                              : std::fabs(s - b) >= std::fabs(c - d) / 2.0;
        const bool tiny_prev = used_bisection ? std::fabs(b - c) < tol : std::fabs(c - d) < tol;
        if (out_of_range || slow_prev || tiny_prev) {
            s = 0.5 * (a + b);
            used_bisection = true;
        } else {
            used_bisection = false;
        }
        const double fs = f(s);
        d = c;
        c = b;
        fc = fb;
        if ((fa > 0.0) != (fs > 0.0)) {
            b = s;
            fb = fs;
        } else {
            a = s;
            fa = fs;
        }
        if (std::fabs(fa) < std::fabs(fb)) {
            std::swap(a, b);
            std::swap(fa, fb);
        }
    }
    return b;
}

double simpson(const numeric::Integrand& f, double a, double b, std::size_t panels) {
    if (panels == 0) throw std::invalid_argument("simpson: panels must be > 0");
    if (panels % 2 != 0) ++panels;
    const double h = (b - a) / static_cast<double>(panels);
    double total = f(a) + f(b);
    for (std::size_t i = 1; i < panels; ++i) {
        const double x = a + static_cast<double>(i) * h;
        total += (i % 2 == 0 ? 2.0 : 4.0) * f(x);
    }
    return total * h / 3.0;
}

} // namespace fmore::reference

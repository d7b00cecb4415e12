#include "fmore/reference/distributions.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace fmore::reference {

// ------------------------------------------------------- Truncated normal

TruncatedNormalDistribution::TruncatedNormalDistribution(double mean, double stddev,
                                                         double lo, double hi)
    : mean_(mean), stddev_(stddev), lo_(lo), hi_(hi) {
    if (!(lo < hi)) throw std::invalid_argument("TruncatedNormal: lo must be < hi");
    if (!(stddev > 0.0)) throw std::invalid_argument("TruncatedNormal: stddev must be > 0");
    z_lo_ = (lo_ - mean_) / stddev_;
    z_hi_ = (hi_ - mean_) / stddev_;
    mass_ = big_phi(z_hi_) - big_phi(z_lo_);
    if (mass_ <= 0.0) throw std::invalid_argument("TruncatedNormal: empty truncation mass");
}

double TruncatedNormalDistribution::phi(double z) const {
    static const double inv_sqrt_2pi = 0.3989422804014327;
    return inv_sqrt_2pi * std::exp(-0.5 * z * z);
}

double TruncatedNormalDistribution::big_phi(double z) const {
    return 0.5 * std::erfc(-z / std::sqrt(2.0));
}

double TruncatedNormalDistribution::cdf(double x) const {
    if (x <= lo_) return 0.0;
    if (x >= hi_) return 1.0;
    const double z = (x - mean_) / stddev_;
    return (big_phi(z) - big_phi(z_lo_)) / mass_;
}

double TruncatedNormalDistribution::pdf(double x) const {
    if (x < lo_ || x > hi_) return 0.0;
    const double z = (x - mean_) / stddev_;
    return phi(z) / (stddev_ * mass_);
}

double TruncatedNormalDistribution::quantile(double p) const {
    p = std::clamp(p, 0.0, 1.0);
    // Bisection on the CDF: 60 iterations shrink the bracket below 1e-15 of
    // the support width, plenty for the auction machinery.
    double a = lo_;
    double b = hi_;
    for (int it = 0; it < 60; ++it) {
        const double mid = 0.5 * (a + b);
        if (cdf(mid) < p) a = mid; else b = mid;
    }
    return 0.5 * (a + b);
}

// ------------------------------------------------------------ Scaled beta

namespace {

/// Continued-fraction evaluation of the regularized incomplete beta
/// function I_x(a, b) (Lentz's algorithm, as in Numerical Recipes).
double betacf(double a, double b, double x) {
    constexpr int max_iter = 200;
    constexpr double eps = 3.0e-12;
    constexpr double fpmin = 1.0e-300;

    const double qab = a + b;
    const double qap = a + 1.0;
    const double qam = a - 1.0;
    double c = 1.0;
    double d = 1.0 - qab * x / qap;
    if (std::fabs(d) < fpmin) d = fpmin;
    d = 1.0 / d;
    double h = d;
    for (int m = 1; m <= max_iter; ++m) {
        const int m2 = 2 * m;
        double aa = m * (b - m) * x / ((qam + m2) * (a + m2));
        d = 1.0 + aa * d;
        if (std::fabs(d) < fpmin) d = fpmin;
        c = 1.0 + aa / c;
        if (std::fabs(c) < fpmin) c = fpmin;
        d = 1.0 / d;
        h *= d * c;
        aa = -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2));
        d = 1.0 + aa * d;
        if (std::fabs(d) < fpmin) d = fpmin;
        c = 1.0 + aa / c;
        if (std::fabs(c) < fpmin) c = fpmin;
        d = 1.0 / d;
        const double del = d * c;
        h *= del;
        if (std::fabs(del - 1.0) < eps) break;
    }
    return h;
}

} // namespace

ScaledBetaDistribution::ScaledBetaDistribution(double alpha, double beta, double lo, double hi)
    : alpha_(alpha), beta_(beta), lo_(lo), hi_(hi) {
    if (!(alpha > 0.0) || !(beta > 0.0))
        throw std::invalid_argument("ScaledBeta: shape parameters must be > 0");
    if (!(lo < hi)) throw std::invalid_argument("ScaledBeta: lo must be < hi");
    log_beta_fn_ = std::lgamma(alpha_) + std::lgamma(beta_) - std::lgamma(alpha_ + beta_);
}

double ScaledBetaDistribution::regularized_incomplete_beta(double x) const {
    if (x <= 0.0) return 0.0;
    if (x >= 1.0) return 1.0;
    const double log_front =
        alpha_ * std::log(x) + beta_ * std::log1p(-x) - log_beta_fn_;
    const double front = std::exp(log_front);
    // Symmetry relation keeps the continued fraction in its fast-converging
    // region.
    if (x < (alpha_ + 1.0) / (alpha_ + beta_ + 2.0)) {
        return front * betacf(alpha_, beta_, x) / alpha_;
    }
    return 1.0 - front * betacf(beta_, alpha_, 1.0 - x) / beta_;
}

double ScaledBetaDistribution::cdf(double x) const {
    if (x <= lo_) return 0.0;
    if (x >= hi_) return 1.0;
    return regularized_incomplete_beta((x - lo_) / (hi_ - lo_));
}

double ScaledBetaDistribution::pdf(double x) const {
    if (x < lo_ || x > hi_) return 0.0;
    const double t = (x - lo_) / (hi_ - lo_);
    if (t <= 0.0 || t >= 1.0) return 0.0;
    const double log_pdf = (alpha_ - 1.0) * std::log(t) + (beta_ - 1.0) * std::log1p(-t)
                           - log_beta_fn_ - std::log(hi_ - lo_);
    return std::exp(log_pdf);
}

double ScaledBetaDistribution::quantile(double p) const {
    p = std::clamp(p, 0.0, 1.0);
    double a = lo_;
    double b = hi_;
    for (int it = 0; it < 60; ++it) {
        const double mid = 0.5 * (a + b);
        if (cdf(mid) < p) a = mid; else b = mid;
    }
    return 0.5 * (a + b);
}

// ------------------------------------------------------------- Empirical

EmpiricalCdf::EmpiricalCdf(std::vector<double> samples) : sorted_(std::move(samples)) {
    if (sorted_.size() < 2)
        throw std::invalid_argument("EmpiricalCdf: need at least 2 samples");
    std::sort(sorted_.begin(), sorted_.end());
    if (sorted_.front() == sorted_.back())
        throw std::invalid_argument("EmpiricalCdf: all samples identical");
}

double EmpiricalCdf::cdf(double x) const {
    if (x <= sorted_.front()) return 0.0;
    if (x >= sorted_.back()) return 1.0;
    // Position of x among order statistics; interpolate the plotting
    // positions i/(n-1) so that F(min)=0 and F(max)=1.
    const auto it = std::upper_bound(sorted_.begin(), sorted_.end(), x);
    const auto hi_idx = static_cast<std::size_t>(it - sorted_.begin());
    const std::size_t lo_idx = hi_idx - 1;
    const double x_lo = sorted_[lo_idx];
    const double x_hi = sorted_[hi_idx];
    const double n1 = static_cast<double>(sorted_.size() - 1);
    const double f_lo = static_cast<double>(lo_idx) / n1;
    const double f_hi = static_cast<double>(hi_idx) / n1;
    if (x_hi == x_lo) return f_hi;
    return f_lo + (f_hi - f_lo) * (x - x_lo) / (x_hi - x_lo);
}

double EmpiricalCdf::pdf(double x) const {
    if (x < sorted_.front() || x > sorted_.back()) return 0.0;
    const auto it = std::upper_bound(sorted_.begin(), sorted_.end(), x);
    auto hi_idx = static_cast<std::size_t>(it - sorted_.begin());
    if (hi_idx == 0) hi_idx = 1;
    if (hi_idx >= sorted_.size()) hi_idx = sorted_.size() - 1;
    const std::size_t lo_idx = hi_idx - 1;
    const double dx = sorted_[hi_idx] - sorted_[lo_idx];
    const double n1 = static_cast<double>(sorted_.size() - 1);
    if (dx <= 0.0) return 0.0;
    return (1.0 / n1) / dx;
}

double EmpiricalCdf::quantile(double p) const {
    p = std::clamp(p, 0.0, 1.0);
    const double n1 = static_cast<double>(sorted_.size() - 1);
    const double pos = p * n1;
    const auto lo_idx = static_cast<std::size_t>(std::floor(pos));
    if (lo_idx >= sorted_.size() - 1) return sorted_.back();
    const double frac = pos - static_cast<double>(lo_idx);
    return sorted_[lo_idx] + frac * (sorted_[lo_idx + 1] - sorted_[lo_idx]);
}

double EmpiricalCdf::ks_distance(const stats::Distribution& reference) const {
    double worst = 0.0;
    for (const double x : sorted_) {
        worst = std::max(worst, std::fabs(cdf(x) - reference.cdf(x)));
    }
    return worst;
}

} // namespace fmore::reference

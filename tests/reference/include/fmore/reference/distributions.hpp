#pragma once

/// @file distributions.hpp
/// Theta families beyond the uniform one every experiment draws from: a
/// truncated normal, a scaled beta and the learned `EmpiricalCdf`. The
/// equilibrium and theory suites solve the game under each; an oracle of
/// Theorem 1 or of a deviation search can too. No production path builds
/// one, so they live outside the libraries.

#include <vector>

#include "fmore/stats/distributions.hpp"

namespace fmore::reference {

/// Normal distribution truncated to [lo, hi]; models clustered cost
/// parameters (most nodes near the mean, a few cheap/expensive outliers).
class TruncatedNormalDistribution final : public stats::Distribution {
public:
    TruncatedNormalDistribution(double mean, double stddev, double lo, double hi);

    [[nodiscard]] double cdf(double x) const override;
    [[nodiscard]] double pdf(double x) const override;
    [[nodiscard]] double quantile(double p) const override;
    [[nodiscard]] double support_lo() const override { return lo_; }
    [[nodiscard]] double support_hi() const override { return hi_; }

private:
    [[nodiscard]] double phi(double z) const;      // standard normal pdf
    [[nodiscard]] double big_phi(double z) const;  // standard normal cdf

    double mean_;
    double stddev_;
    double lo_;
    double hi_;
    double z_lo_;
    double z_hi_;
    double mass_; // big_phi(z_hi_) - big_phi(z_lo_)
};

/// Power-law-shaped Beta(a,b) rescaled to [lo, hi]. With a<b mass sits near
/// lo (many low-cost nodes); with a>b near hi.
class ScaledBetaDistribution final : public stats::Distribution {
public:
    ScaledBetaDistribution(double alpha, double beta, double lo, double hi);

    [[nodiscard]] double cdf(double x) const override;
    [[nodiscard]] double pdf(double x) const override;
    [[nodiscard]] double quantile(double p) const override;
    [[nodiscard]] double support_lo() const override { return lo_; }
    [[nodiscard]] double support_hi() const override { return hi_; }

private:
    [[nodiscard]] double regularized_incomplete_beta(double x) const;

    double alpha_;
    double beta_;
    double lo_;
    double hi_;
    double log_beta_fn_; // log B(alpha, beta)
};

/// Empirical CDF with linear interpolation between order statistics.
///
/// The paper (Section III.A(2)) has each edge node "learn its private cost
/// parameter theta and get the CDF F(theta) from the historical data". This
/// class is that learned F: it is built from past theta observations and
/// plugs into the equilibrium solver exactly like an analytic Distribution.
///
/// The interpolated form (rather than the step function) keeps F continuous
/// and strictly increasing between the sample extremes, which the
/// equilibrium machinery needs (the paper assumes a positive density f).
class EmpiricalCdf final : public stats::Distribution {
public:
    /// Build from raw samples; throws if fewer than two distinct values.
    explicit EmpiricalCdf(std::vector<double> samples);

    [[nodiscard]] double cdf(double x) const override;
    /// Piecewise-constant density implied by the interpolated CDF.
    [[nodiscard]] double pdf(double x) const override;
    [[nodiscard]] double quantile(double p) const override;
    [[nodiscard]] double support_lo() const override { return sorted_.front(); }
    [[nodiscard]] double support_hi() const override { return sorted_.back(); }

    [[nodiscard]] std::size_t sample_count() const { return sorted_.size(); }

    /// Kolmogorov-Smirnov distance to a reference distribution, evaluated at
    /// the sample points. Used by tests to show the learned F converges to
    /// the true theta distribution as history grows.
    [[nodiscard]] double ks_distance(const stats::Distribution& reference) const;

private:
    std::vector<double> sorted_;
};

} // namespace fmore::reference

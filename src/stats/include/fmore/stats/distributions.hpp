#pragma once

#include <functional>
#include <memory>

#include "fmore/stats/rng.hpp"

namespace fmore::stats {

/// Abstract continuous distribution on a bounded support.
///
/// The paper's private-cost parameter theta is "independently and identically
/// distributed over [theta_lo, theta_hi] with positive, continuously
/// differentiable density f" (Section III.A(2)). `UniformDistribution`
/// below satisfies that. The test-only families (truncated normal, scaled
/// beta, and `EmpiricalCdf` for the "learned from historical data" case)
/// live in the `fmore_reference` target (fmore/reference/distributions.hpp).
class Distribution {
public:
    virtual ~Distribution() = default;

    /// Cumulative distribution function F(x); clamps outside the support.
    [[nodiscard]] virtual double cdf(double x) const = 0;

    /// Density f(x); zero outside the support.
    [[nodiscard]] virtual double pdf(double x) const = 0;

    /// Inverse CDF (quantile) for p in [0,1].
    [[nodiscard]] virtual double quantile(double p) const = 0;

    /// Support bounds [lo, hi].
    [[nodiscard]] virtual double support_lo() const = 0;
    [[nodiscard]] virtual double support_hi() const = 0;

    /// Draw a sample.
    [[nodiscard]] virtual double sample(Rng& rng) const;
};

/// Uniform distribution on [lo, hi]; the default theta model in our
/// simulations (matching the paper's lack of a stated family).
class UniformDistribution final : public Distribution {
public:
    UniformDistribution(double lo, double hi);

    [[nodiscard]] double cdf(double x) const override;
    [[nodiscard]] double pdf(double x) const override;
    [[nodiscard]] double quantile(double p) const override;
    [[nodiscard]] double support_lo() const override { return lo_; }
    [[nodiscard]] double support_hi() const override { return hi_; }

private:
    double lo_;
    double hi_;
};

} // namespace fmore::stats

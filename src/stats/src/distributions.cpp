#include "fmore/stats/distributions.hpp"

#include <algorithm>
#include <stdexcept>

namespace fmore::stats {

double Distribution::sample(Rng& rng) const {
    return quantile(rng.uniform(0.0, 1.0));
}

// ---------------------------------------------------------------- Uniform

UniformDistribution::UniformDistribution(double lo, double hi) : lo_(lo), hi_(hi) {
    if (!(lo < hi)) throw std::invalid_argument("UniformDistribution: lo must be < hi");
}

double UniformDistribution::cdf(double x) const {
    if (x <= lo_) return 0.0;
    if (x >= hi_) return 1.0;
    return (x - lo_) / (hi_ - lo_);
}

double UniformDistribution::pdf(double x) const {
    if (x < lo_ || x > hi_) return 0.0;
    return 1.0 / (hi_ - lo_);
}

double UniformDistribution::quantile(double p) const {
    p = std::clamp(p, 0.0, 1.0);
    return lo_ + p * (hi_ - lo_);
}

} // namespace fmore::stats

#include "fmore/stats/normalizer.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace fmore::stats {

namespace {

/// 1 / span when span is a finite power of two and its reciprocal a double
/// (then exact), else 0. An overflowed span (inf) and a subnormal span
/// below 2^-1023, whose reciprocal overflows, keep the division.
double exact_inverse(double span) {
    int exponent = 0;
    if (!std::isfinite(span) || !(span > 0.0) || std::frexp(span, &exponent) != 0.5)
        return 0.0;
    const double inverse = 1.0 / span;
    return std::isfinite(inverse) ? inverse : 0.0;
}

} // namespace

MinMaxNormalizer::MinMaxNormalizer(double lo, double hi)
    : lo_(lo), hi_(hi), inverse_span_(exact_inverse(hi - lo)) {
    if (!(lo < hi)) throw std::invalid_argument("MinMaxNormalizer: lo must be < hi");
}

MinMaxNormalizer MinMaxNormalizer::fit(const std::vector<double>& values) {
    if (values.size() < 2)
        throw std::invalid_argument("MinMaxNormalizer::fit: need at least 2 values");
    const auto [mn, mx] = std::minmax_element(values.begin(), values.end());
    if (*mn == *mx)
        throw std::invalid_argument("MinMaxNormalizer::fit: all values identical");
    return MinMaxNormalizer(*mn, *mx);
}

double MinMaxNormalizer::inverse(double y) const {
    return lo_ + std::clamp(y, 0.0, 1.0) * (hi_ - lo_);
}

} // namespace fmore::stats

#include "fmore/stats/normalizer.hpp"

#include <algorithm>
#include <stdexcept>

namespace fmore::stats {

MinMaxNormalizer::MinMaxNormalizer(double lo, double hi) : lo_(lo), hi_(hi) {
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

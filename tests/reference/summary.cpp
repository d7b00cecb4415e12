#include "fmore/reference/summary.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace fmore::reference {

void RunningSummary::add(double x) {
    if (count_ == 0) {
        min_ = x;
        max_ = x;
    } else {
        min_ = std::min(min_, x);
        max_ = std::max(max_, x);
    }
    ++count_;
    const double delta = x - mean_;
    mean_ += delta / static_cast<double>(count_);
    m2_ += delta * (x - mean_);
}

double RunningSummary::mean() const {
    if (count_ == 0) throw std::logic_error("RunningSummary: empty");
    return mean_;
}

double RunningSummary::variance() const {
    if (count_ < 2) return 0.0;
    return m2_ / static_cast<double>(count_ - 1);
}

double RunningSummary::stddev() const { return std::sqrt(variance()); }

double RunningSummary::min() const {
    if (count_ == 0) throw std::logic_error("RunningSummary: empty");
    return min_;
}

double RunningSummary::max() const {
    if (count_ == 0) throw std::logic_error("RunningSummary: empty");
    return max_;
}

double mean(const std::vector<double>& xs) {
    if (xs.empty()) throw std::invalid_argument("mean: empty vector");
    double total = 0.0;
    for (const double x : xs) total += x;
    return total / static_cast<double>(xs.size());
}

double stddev(const std::vector<double>& xs) {
    if (xs.size() < 2) return 0.0;
    const double mu = mean(xs);
    double ss = 0.0;
    for (const double x : xs) ss += (x - mu) * (x - mu);
    return std::sqrt(ss / static_cast<double>(xs.size() - 1));
}

double percentile(std::vector<double> xs, double p) {
    if (xs.empty()) throw std::invalid_argument("percentile: empty vector");
    p = std::clamp(p, 0.0, 100.0);
    std::sort(xs.begin(), xs.end());
    const double pos = (p / 100.0) * static_cast<double>(xs.size() - 1);
    const auto lo = static_cast<std::size_t>(std::floor(pos));
    if (lo >= xs.size() - 1) return xs.back();
    const double frac = pos - static_cast<double>(lo);
    return xs[lo] + frac * (xs[lo + 1] - xs[lo]);
}

} // namespace fmore::reference

#pragma once

/// @file summary.hpp
/// Summary statistics over repeated observations.

#include <cstddef>
#include <vector>

namespace fmore::reference {

/// Streaming summary statistics (Welford's algorithm). No production path
/// uses it; kept outside the libraries for ledgers and oracles that want a
/// mean and spread over repeated runs.
class RunningSummary {
public:
    void add(double x);

    [[nodiscard]] std::size_t count() const { return count_; }
    [[nodiscard]] double mean() const;
    [[nodiscard]] double variance() const; // sample variance (n-1)
    [[nodiscard]] double stddev() const;
    [[nodiscard]] double min() const;
    [[nodiscard]] double max() const;

private:
    std::size_t count_ = 0;
    double mean_ = 0.0;
    double m2_ = 0.0;
    double min_ = 0.0;
    double max_ = 0.0;
};

/// Batch helpers on a vector of observations.
double mean(const std::vector<double>& xs);
double stddev(const std::vector<double>& xs);
/// Linearly interpolated percentile, p in [0,100].
double percentile(std::vector<double> xs, double p);

} // namespace fmore::reference

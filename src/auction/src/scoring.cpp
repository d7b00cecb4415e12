#include "fmore/auction/scoring.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace fmore::auction {

WeightedScoringBase::WeightedScoringBase(std::vector<double> coefficients,
                                         std::vector<stats::MinMaxNormalizer> normalizers)
    : coefficients_(std::move(coefficients)), normalizers_(std::move(normalizers)) {
    if (coefficients_.empty())
        throw std::invalid_argument("scoring: need at least one coefficient");
    if (!normalizers_.empty() && normalizers_.size() != coefficients_.size())
        throw std::invalid_argument("scoring: normalizer/coefficient count mismatch");
}

double WeightedScoringBase::normalized(const QualityVector& q, std::size_t d) const {
    return normalizers_.empty() ? q[d] : normalizers_[d].transform(q[d]);
}

void WeightedScoringBase::check_dims(const QualityVector& q) const {
    if (q.size() != coefficients_.size())
        throw std::invalid_argument("scoring: quality vector has wrong dimension");
}

double ScoringRule::quality_score_span(const double* q, std::size_t n) const {
    // Correct-by-default adapter for custom rules: the scratch keeps its
    // capacity across calls, so steady-state rounds stay allocation-free.
    thread_local QualityVector scratch;
    scratch.assign(q, q + n);
    return quality_score(scratch);
}

void ScoringRule::quality_score_rows(const double* q, std::size_t n, double* out) const {
    // Correct-by-default adapter for custom rules: one span call per row,
    // off a scratch that keeps its capacity across calls.
    thread_local QualityVector row;
    const std::size_t dims = dimensions();
    row.resize(dims);
    for (std::size_t r = 0; r < n; ++r) {
        for (std::size_t d = 0; d < dims; ++d) row[d] = q[d * n + r];
        out[r] = quality_score_span(row.data(), dims);
    }
}

double AdditiveScoring::quality_score(const QualityVector& q) const {
    check_dims(q);
    double total = 0.0;
    for (std::size_t d = 0; d < q.size(); ++d) {
        total += coefficients_[d] * normalized(q, d);
    }
    return total;
}

double AdditiveScoring::quality_score_span(const double* q, std::size_t n) const {
    if (n != coefficients_.size())
        throw std::invalid_argument("scoring: quality vector has wrong dimension");
    double total = 0.0;
    for (std::size_t d = 0; d < n; ++d) {
        const double qi = normalizers_.empty() ? q[d] : normalizers_[d].transform(q[d]);
        total += coefficients_[d] * qi;
    }
    return total;
}

double LeontiefScoring::quality_score(const QualityVector& q) const {
    check_dims(q);
    double lowest = coefficients_[0] * normalized(q, 0);
    for (std::size_t d = 1; d < q.size(); ++d) {
        lowest = std::min(lowest, coefficients_[d] * normalized(q, d));
    }
    return lowest;
}

double LeontiefScoring::quality_score_span(const double* q, std::size_t n) const {
    if (n != coefficients_.size())
        throw std::invalid_argument("scoring: quality vector has wrong dimension");
    auto norm = [this, q](std::size_t d) {
        return normalizers_.empty() ? q[d] : normalizers_[d].transform(q[d]);
    };
    double lowest = coefficients_[0] * norm(0);
    for (std::size_t d = 1; d < n; ++d) {
        lowest = std::min(lowest, coefficients_[d] * norm(d));
    }
    return lowest;
}

double CobbDouglasScoring::quality_score(const QualityVector& q) const {
    check_dims(q);
    double product = 1.0;
    for (std::size_t d = 0; d < q.size(); ++d) {
        const double qi = normalized(q, d);
        if (qi < 0.0)
            throw std::domain_error("CobbDouglasScoring: negative quality");
        product *= std::pow(qi, coefficients_[d]);
    }
    return product;
}

double CobbDouglasScoring::quality_score_span(const double* q, std::size_t n) const {
    if (n != coefficients_.size())
        throw std::invalid_argument("scoring: quality vector has wrong dimension");
    double product = 1.0;
    for (std::size_t d = 0; d < n; ++d) {
        const double qi = normalizers_.empty() ? q[d] : normalizers_[d].transform(q[d]);
        if (qi < 0.0)
            throw std::domain_error("CobbDouglasScoring: negative quality");
        product *= std::pow(qi, coefficients_[d]);
    }
    return product;
}

ScaledProductScoring::ScaledProductScoring(double alpha, std::size_t dims,
                                           std::vector<stats::MinMaxNormalizer> normalizers)
    : alpha_(alpha), dims_(dims), normalizers_(std::move(normalizers)) {
    if (dims_ == 0) throw std::invalid_argument("ScaledProductScoring: dims must be > 0");
    if (!normalizers_.empty() && normalizers_.size() != dims_)
        throw std::invalid_argument("ScaledProductScoring: normalizer count mismatch");
}

double ScaledProductScoring::quality_score(const QualityVector& q) const {
    if (q.size() != dims_)
        throw std::invalid_argument("ScaledProductScoring: quality vector has wrong dimension");
    double product = alpha_;
    for (std::size_t d = 0; d < dims_; ++d) {
        product *= normalizers_.empty() ? q[d] : normalizers_[d].transform(q[d]);
    }
    return product;
}

double ScaledProductScoring::quality_score_span(const double* q, std::size_t n) const {
    if (n != dims_)
        throw std::invalid_argument("ScaledProductScoring: quality vector has wrong dimension");
    double product = alpha_;
    for (std::size_t d = 0; d < dims_; ++d) {
        product *= normalizers_.empty() ? q[d] : normalizers_[d].transform(q[d]);
    }
    return product;
}

void ScaledProductScoring::quality_score_rows(const double* __restrict q, std::size_t n,
                                              double* __restrict out) const {
    // quality_score_span per row, vectorized across rows: each row's
    // product starts at alpha and takes its factors in dimension order,
    // each normalized as `transform` does (`transform_rows` leaves out only
    // the arithmetic that changes no bit).
    for (std::size_t r = 0; r < n; ++r) out[r] = alpha_;
    for (std::size_t d = 0; d < dims_; ++d) {
        const double* column = q + d * n;
        if (normalizers_.empty()) {
            for (std::size_t r = 0; r < n; ++r) out[r] *= column[r];
        } else {
            normalizers_[d].transform_rows(column, n,
                                           [out](std::size_t r, double y) { out[r] *= y; });
        }
    }
}

} // namespace fmore::auction

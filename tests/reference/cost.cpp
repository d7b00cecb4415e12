#include "fmore/reference/cost.hpp"

#include <cmath>
#include <stdexcept>

namespace fmore::reference {

namespace {

void check_betas(const std::vector<double>& betas) {
    if (betas.empty()) throw std::invalid_argument("cost: need at least one beta");
    for (const double b : betas) {
        if (!(b >= 0.0)) throw std::invalid_argument("cost: betas must be >= 0");
    }
}

void check_quality_dims(const auction::QualityVector& q, std::size_t expected) {
    if (q.size() != expected)
        throw std::invalid_argument("cost: quality vector has wrong dimension");
}

} // namespace

QuadraticCost::QuadraticCost(std::vector<double> betas) : betas_(std::move(betas)) {
    check_betas(betas_);
}

double QuadraticCost::cost(const auction::QualityVector& q, double theta) const {
    check_quality_dims(q, betas_.size());
    double total = 0.0;
    for (std::size_t d = 0; d < q.size(); ++d) total += betas_[d] * q[d] * q[d];
    return theta * total;
}

double QuadraticCost::cost_theta_derivative(const auction::QualityVector& q, double) const {
    check_quality_dims(q, betas_.size());
    double total = 0.0;
    for (std::size_t d = 0; d < q.size(); ++d) total += betas_[d] * q[d] * q[d];
    return total;
}

PowerCost::PowerCost(std::vector<double> betas, double gamma)
    : betas_(std::move(betas)), gamma_(gamma) {
    check_betas(betas_);
    if (!(gamma_ >= 1.0)) throw std::invalid_argument("PowerCost: gamma must be >= 1");
}

double PowerCost::cost(const auction::QualityVector& q, double theta) const {
    check_quality_dims(q, betas_.size());
    double total = 0.0;
    for (std::size_t d = 0; d < q.size(); ++d) {
        if (q[d] < 0.0) throw std::domain_error("PowerCost: negative quality");
        total += betas_[d] * std::pow(q[d], gamma_);
    }
    return theta * total;
}

double PowerCost::cost_theta_derivative(const auction::QualityVector& q, double) const {
    check_quality_dims(q, betas_.size());
    double total = 0.0;
    for (std::size_t d = 0; d < q.size(); ++d) total += betas_[d] * std::pow(q[d], gamma_);
    return total;
}

} // namespace fmore::reference

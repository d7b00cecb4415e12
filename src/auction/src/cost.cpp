#include "fmore/auction/cost.hpp"

#include <cmath>
#include <stdexcept>

namespace fmore::auction {

namespace {

void check_betas(const std::vector<double>& betas) {
    if (betas.empty()) throw std::invalid_argument("cost: need at least one beta");
    for (const double b : betas) {
        if (!(b >= 0.0)) throw std::invalid_argument("cost: betas must be >= 0");
    }
}

void check_quality_dims(const QualityVector& q, std::size_t expected) {
    if (q.size() != expected)
        throw std::invalid_argument("cost: quality vector has wrong dimension");
}

} // namespace

double CostModel::cost_span(const double* q, std::size_t n, double theta) const {
    // Correct-by-default adapter for custom models: the scratch keeps its
    // capacity across calls, so steady-state rounds stay allocation-free.
    thread_local QualityVector scratch;
    scratch.assign(q, q + n);
    return cost(scratch, theta);
}

void CostModel::cost_rows(const double* q, std::size_t n, const double* theta,
                          double* out) const {
    // Correct-by-default adapter for custom models: one span call per row,
    // off a scratch that keeps its capacity across calls.
    thread_local QualityVector row;
    const std::size_t dims = dimensions();
    row.resize(dims);
    for (std::size_t r = 0; r < n; ++r) {
        for (std::size_t d = 0; d < dims; ++d) row[d] = q[d * n + r];
        out[r] = cost_span(row.data(), dims, theta[r]);
    }
}

AdditiveCost::AdditiveCost(std::vector<double> betas) : betas_(std::move(betas)) {
    check_betas(betas_);
}

double AdditiveCost::cost(const QualityVector& q, double theta) const {
    check_quality_dims(q, betas_.size());
    double total = 0.0;
    for (std::size_t d = 0; d < q.size(); ++d) total += betas_[d] * q[d];
    return theta * total;
}

double AdditiveCost::cost_span(const double* q, std::size_t n, double theta) const {
    if (n != betas_.size())
        throw std::invalid_argument("cost: quality vector has wrong dimension");
    double total = 0.0;
    for (std::size_t d = 0; d < n; ++d) total += betas_[d] * q[d];
    return theta * total;
}

void AdditiveCost::cost_rows(const double* __restrict q, std::size_t n,
                             const double* __restrict theta,
                             double* __restrict out) const {
    // cost_span per row, vectorized across rows: each row's sum starts at
    // +0 and adds beta_d * q_d in dimension order, then takes theta.
    for (std::size_t r = 0; r < n; ++r) out[r] = 0.0;
    for (std::size_t d = 0; d < betas_.size(); ++d) {
        const double beta = betas_[d];
        const double* column = q + d * n;
        for (std::size_t r = 0; r < n; ++r) out[r] += beta * column[r];
    }
    for (std::size_t r = 0; r < n; ++r) out[r] = theta[r] * out[r];
}

double AdditiveCost::cost_theta_derivative(const QualityVector& q, double) const {
    check_quality_dims(q, betas_.size());
    double total = 0.0;
    for (std::size_t d = 0; d < q.size(); ++d) total += betas_[d] * q[d];
    return total;
}

QuadraticCost::QuadraticCost(std::vector<double> betas) : betas_(std::move(betas)) {
    check_betas(betas_);
}

double QuadraticCost::cost(const QualityVector& q, double theta) const {
    check_quality_dims(q, betas_.size());
    double total = 0.0;
    for (std::size_t d = 0; d < q.size(); ++d) total += betas_[d] * q[d] * q[d];
    return theta * total;
}

double QuadraticCost::cost_theta_derivative(const QualityVector& q, double) const {
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

double PowerCost::cost(const QualityVector& q, double theta) const {
    check_quality_dims(q, betas_.size());
    double total = 0.0;
    for (std::size_t d = 0; d < q.size(); ++d) {
        if (q[d] < 0.0) throw std::domain_error("PowerCost: negative quality");
        total += betas_[d] * std::pow(q[d], gamma_);
    }
    return theta * total;
}

double PowerCost::cost_theta_derivative(const QualityVector& q, double) const {
    check_quality_dims(q, betas_.size());
    double total = 0.0;
    for (std::size_t d = 0; d < q.size(); ++d) total += betas_[d] * std::pow(q[d], gamma_);
    return total;
}

SingleCrossingReport check_single_crossing(const CostModel& cost, const QualityVector& q_lo,
                                           const QualityVector& q_hi, double theta_lo,
                                           double theta_hi, std::size_t samples) {
    if (q_lo.size() != q_hi.size() || q_lo.size() != cost.dimensions())
        throw std::invalid_argument("check_single_crossing: dimension mismatch");
    if (samples < 3) samples = 3;

    SingleCrossingReport report;
    const std::size_t m = q_lo.size();
    const double dtheta = (theta_hi - theta_lo) / static_cast<double>(samples - 1);

    for (std::size_t d = 0; d < m; ++d) {
        const double hq = (q_hi[d] - q_lo[d]) / static_cast<double>(samples + 1);
        if (!(hq > 0.0)) continue;
        for (std::size_t ti = 0; ti < samples; ++ti) {
            const double theta = theta_lo + static_cast<double>(ti) * dtheta;
            const double theta2 = theta + 0.5 * dtheta;
            for (std::size_t qi = 1; qi <= samples; ++qi) {
                QualityVector q = q_lo;
                for (std::size_t e = 0; e < m; ++e) q[e] = 0.5 * (q_lo[e] + q_hi[e]);
                q[d] = q_lo[d] + static_cast<double>(qi) * hq;

                auto cq = [&](double qd, double th) {
                    QualityVector probe = q;
                    probe[d] = qd + 0.5 * hq;
                    const double hi_val = cost.cost(probe, th);
                    probe[d] = qd - 0.5 * hq;
                    return (hi_val - cost.cost(probe, th)) / hq;
                };
                const double c_q = cq(q[d], theta);
                const double c_qq = (cq(q[d] + 0.5 * hq, theta) - cq(q[d] - 0.5 * hq, theta)) / hq;
                const double c_q_hi_theta = cq(q[d], theta2);
                const double c_qq_hi_theta =
                    (cq(q[d] + 0.5 * hq, theta2) - cq(q[d] - 0.5 * hq, theta2)) / hq;

                constexpr double tol = 1e-9;
                if (c_q < -tol) report.cost_increasing_in_quality = false;
                if (c_qq < -tol) report.convex_in_quality = false;
                if (theta2 > theta && c_q_hi_theta <= c_q - tol)
                    report.marginal_increasing_in_theta = false;
                if (c_qq_hi_theta < c_qq - tol) report.curvature_increasing_in_theta = false;
            }
        }
    }
    return report;
}

} // namespace fmore::auction

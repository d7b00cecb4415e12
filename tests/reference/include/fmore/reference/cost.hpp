#pragma once

/// @file cost.hpp
/// Cost families beyond the additive one every experiment prices with:
/// convex and power costs that satisfy the paper's single-crossing
/// conditions (Section III.A(2)). The cost suite checks those conditions
/// on them; no production path builds one.

#include <vector>

#include "fmore/auction/cost.hpp"

namespace fmore::reference {

/// Convex cost c(q, theta) = theta * sum_i beta_i q_i^2; strictly convex in
/// q, giving interior quality optima under additive scoring (the additive
/// cost gives corner solutions there).
class QuadraticCost final : public auction::CostModel {
public:
    explicit QuadraticCost(std::vector<double> betas);

    [[nodiscard]] double cost(const auction::QualityVector& q, double theta) const override;
    [[nodiscard]] double cost_theta_derivative(const auction::QualityVector& q,
                                               double theta) const override;
    [[nodiscard]] std::size_t dimensions() const override { return betas_.size(); }

private:
    std::vector<double> betas_;
};

/// Power cost c(q, theta) = theta * sum_i beta_i q_i^{gamma} with gamma >= 1.
class PowerCost final : public auction::CostModel {
public:
    PowerCost(std::vector<double> betas, double gamma);

    [[nodiscard]] double cost(const auction::QualityVector& q, double theta) const override;
    [[nodiscard]] double cost_theta_derivative(const auction::QualityVector& q,
                                               double theta) const override;
    [[nodiscard]] std::size_t dimensions() const override { return betas_.size(); }
    [[nodiscard]] double gamma() const { return gamma_; }

private:
    std::vector<double> betas_;
    double gamma_;
};

} // namespace fmore::reference

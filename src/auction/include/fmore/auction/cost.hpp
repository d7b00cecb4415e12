#pragma once

#include <vector>

#include "fmore/auction/types.hpp"

namespace fmore::auction {

/// Private cost function c(q, theta) of an edge node.
///
/// Section III.A(2): the cost is increasing in each quality dimension and
/// satisfies the single-crossing conditions c_qq >= 0, c_q_theta > 0 and
/// c_qq_theta >= 0 ("the marginal cost increases with the parameter theta").
/// Those conditions make the type-to-surplus map monotone, which is what the
/// equilibrium construction relies on.
class CostModel {
public:
    virtual ~CostModel() = default;

    /// c(q, theta).
    [[nodiscard]] virtual double cost(const QualityVector& q, double theta) const = 0;

    /// c(q, theta) over a contiguous span of `n` doubles — the
    /// allocation-free fast path of the flat bid pipeline. The default
    /// copies into a reused thread-local scratch and calls `cost`; the
    /// built-in families override it. Bit-identical to `cost` on an equal
    /// vector by contract.
    [[nodiscard]] virtual double cost_span(const double* q, std::size_t n,
                                           double theta) const;

    /// Row twin of cost_span over `n` rows held column by column
    /// (dimension d of row r at q[d * n + r], dimensions() columns), row r
    /// of type theta[r]: out[r] is bit-identical to cost_span on row r
    /// (contract: equilibrium.hpp, "Row kernels"). The default gathers
    /// each row into a reused thread-local scratch and makes one span
    /// call; the additive family overrides it with a loop that vectorizes
    /// across rows.
    virtual void cost_rows(const double* q, std::size_t n, const double* theta,
                           double* out) const;

    /// dc/dtheta at (q, theta); needed by Che's closed-form payments.
    [[nodiscard]] virtual double cost_theta_derivative(const QualityVector& q,
                                                       double theta) const = 0;

    [[nodiscard]] virtual std::size_t dimensions() const = 0;
};

/// Additive cost c(q, theta) = theta * sum_i beta_i q_i — the family used in
/// the paper's Proposition 4 and throughout our simulations.
class AdditiveCost final : public CostModel {
public:
    explicit AdditiveCost(std::vector<double> betas);

    [[nodiscard]] double cost(const QualityVector& q, double theta) const override;
    [[nodiscard]] double cost_span(const double* q, std::size_t n,
                                   double theta) const override;
    void cost_rows(const double* q, std::size_t n, const double* theta,
                   double* out) const override;
    [[nodiscard]] double cost_theta_derivative(const QualityVector& q,
                                               double theta) const override;
    [[nodiscard]] std::size_t dimensions() const override { return betas_.size(); }
    [[nodiscard]] const std::vector<double>& betas() const { return betas_; }

private:
    std::vector<double> betas_;
};

/// Report of a numeric single-crossing check on a sample grid.
struct SingleCrossingReport {
    bool cost_increasing_in_quality = true; // c_q >= 0
    bool convex_in_quality = true;          // c_qq >= 0
    bool marginal_increasing_in_theta = true; // c_q_theta > 0
    bool curvature_increasing_in_theta = true; // c_qq_theta >= 0
    [[nodiscard]] bool all_hold() const {
        return cost_increasing_in_quality && convex_in_quality
               && marginal_increasing_in_theta && curvature_increasing_in_theta;
    }
};

/// Finite-difference check of the paper's single-crossing assumptions over a
/// quality box and theta interval. `samples` grid points per axis.
SingleCrossingReport check_single_crossing(const CostModel& cost,
                                           const QualityVector& q_lo,
                                           const QualityVector& q_hi, double theta_lo,
                                           double theta_hi, std::size_t samples = 8);

} // namespace fmore::auction

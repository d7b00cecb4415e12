#include "fmore/auction/equilibrium.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "fmore/numeric/optimize.hpp"
#include "fmore/numeric/quadrature.hpp"

namespace fmore::auction {

namespace {

constexpr double k_tiny_prob = 1e-12;

} // namespace

// ------------------------------------------------------------------ Strategy

QualityVector EquilibriumStrategy::quality(double theta) const {
    QualityVector q(quality_curves_.size());
    for (std::size_t d = 0; d < q.size(); ++d) q[d] = (*quality_curves_[d])(theta);
    return q;
}

double EquilibriumStrategy::max_surplus(double theta) const {
    return (*surplus_curve_)(theta);
}

double EquilibriumStrategy::payment(double theta, PaymentMethod method) const {
    const QualityVector q = quality(theta);
    const double c = cost_->cost(q, theta);
    if (degenerate_) return c;
    return c + markup_curve(method)(max_surplus(theta));
}

Bid EquilibriumStrategy::bid(NodeId node, double theta, PaymentMethod method) const {
    return Bid{node, quality(theta), payment(theta, method)};
}

double EquilibriumStrategy::expected_profit(double theta) const {
    if (degenerate_) return 0.0;
    return (*profit_curve_)(max_surplus(theta));
}

double EquilibriumStrategy::win_probability_at(double theta) const {
    if (degenerate_) {
        return static_cast<double>(num_winners_) / static_cast<double>(num_bidders_);
    }
    return (*win_prob_curve_)(max_surplus(theta));
}

double EquilibriumStrategy::score_cdf(double u) const {
    if (degenerate_) return u < u_min_ ? 0.0 : 1.0;
    if (u <= u_min_) return 0.0;
    if (u >= u_max_) return 1.0;
    return (*score_cdf_curve_)(u);
}

double EquilibriumStrategy::markup_at_score(double u, PaymentMethod method) const {
    if (degenerate_) return 0.0;
    return markup_curve(method)(std::clamp(u, u_min_, u_max_));
}

double EquilibriumStrategy::payment_for(const QualityVector& q, double theta,
                                        PaymentMethod method) const {
    const double c = cost_->cost(q, theta);
    const double u = scoring_->quality_score(q) - c;
    return c + markup_at_score(u, method);
}

void EquilibriumStrategy::quality_into(double theta, double* out) const {
    // Every quality curve is tabulated by the solver on the SAME theta
    // grid, so one segment lookup serves all dimensions. Values are
    // bit-identical to calling each curve's operator() (same segment, same
    // lerp arithmetic).
    const numeric::LinearInterpolator& first = *quality_curves_[0];
    if (theta <= first.x_min()) {
        for (std::size_t d = 0; d < quality_curves_.size(); ++d) {
            out[d] = quality_curves_[d]->ys().front();
        }
        return;
    }
    if (theta >= first.x_max()) {
        for (std::size_t d = 0; d < quality_curves_.size(); ++d) {
            out[d] = quality_curves_[d]->ys().back();
        }
        return;
    }
    const std::size_t hi = first.segment_for(theta);
    for (std::size_t d = 0; d < quality_curves_.size(); ++d) {
        out[d] = quality_curves_[d]->eval_segment(hi, theta);
    }
}

double EquilibriumStrategy::payment_for_span(const double* q, std::size_t n, double theta,
                                             PaymentMethod method) const {
    const double c = cost_->cost_span(q, n, theta);
    const double u = scoring_->quality_score_span(q, n) - c;
    return c + markup_at_score(u, method);
}

EquilibriumStrategy::SealedQuote EquilibriumStrategy::quote_span(
    const double* q, std::size_t n, double theta, PaymentMethod method) const {
    const double c = cost_->cost_span(q, n, theta);
    const double s = scoring_->quality_score_span(q, n);
    const double u = s - c;
    return {c + markup_at_score(u, method), s};
}

void EquilibriumStrategy::quality_rows(const double* theta, std::size_t n,
                                       double* q) const {
    // quality_into per row: one segment lookup on the shared theta grid
    // serves every dimension's curve.
    std::size_t hi[numeric::kRowBlock] = {};
    const numeric::LinearInterpolator& first = *quality_curves_[0];
    for (std::size_t r0 = 0; r0 < n; r0 += numeric::kRowBlock) {
        const std::size_t rows = std::min(numeric::kRowBlock, n - r0);
        first.segment_rows(theta + r0, rows, hi);
        for (std::size_t d = 0; d < quality_curves_.size(); ++d) {
            quality_curves_[d]->eval_rows(hi, theta + r0, rows, q + d * n + r0);
        }
    }
}

void EquilibriumStrategy::quote_rows(const double* q, std::size_t n,
                                     const double* theta, PaymentMethod method,
                                     double* payment, double* quality_score) const {
    // quote_span per row: payment holds c(q, theta) until the markup
    // lands on it.
    cost_->cost_rows(q, n, theta, payment);
    scoring_->quality_score_rows(q, n, quality_score);
    if (degenerate_) {
        for (std::size_t r = 0; r < n; ++r) payment[r] = payment[r] + 0.0;
        return;
    }
    const numeric::LinearInterpolator& curve = markup_curve(method);
    double u[numeric::kRowBlock] = {};
    double markup[numeric::kRowBlock] = {};
    std::size_t hi[numeric::kRowBlock] = {};
    for (std::size_t r0 = 0; r0 < n; r0 += numeric::kRowBlock) {
        const std::size_t rows = std::min(numeric::kRowBlock, n - r0);
        for (std::size_t r = 0; r < rows; ++r) {
            u[r] = std::clamp(quality_score[r0 + r] - payment[r0 + r], u_min_, u_max_);
        }
        curve.segment_rows(u, rows, hi);
        curve.eval_rows(hi, u, rows, markup);
        for (std::size_t r = 0; r < rows; ++r) {
            payment[r0 + r] = payment[r0 + r] + markup[r];
        }
    }
}

const numeric::LinearInterpolator&
EquilibriumStrategy::markup_curve(PaymentMethod method) const {
    switch (method) {
        case PaymentMethod::euler_ode: return *markup_euler_;
        case PaymentMethod::rk4_ode: return *markup_rk4_;
        case PaymentMethod::integral: break;
    }
    return *markup_integral_;
}

// -------------------------------------------------------------------- Solver

EquilibriumSolver::EquilibriumSolver(const ScoringRule& scoring, const CostModel& cost,
                                     const stats::Distribution& theta_dist,
                                     QualityVector q_lo, QualityVector q_hi,
                                     EquilibriumConfig config)
    : scoring_(scoring),
      cost_(cost),
      theta_dist_(theta_dist),
      q_lo_(std::move(q_lo)),
      q_hi_(std::move(q_hi)),
      config_(config) {
    if (q_lo_.size() != q_hi_.size() || q_lo_.empty())
        throw std::invalid_argument("EquilibriumSolver: bad quality bounds");
    if (q_lo_.size() != scoring_.dimensions() || q_lo_.size() != cost_.dimensions())
        throw std::invalid_argument("EquilibriumSolver: dimension mismatch");
    for (std::size_t d = 0; d < q_lo_.size(); ++d) {
        if (!(q_lo_[d] <= q_hi_[d]))
            throw std::invalid_argument("EquilibriumSolver: q_lo > q_hi");
    }
    if (config_.num_winners == 0 || config_.num_winners >= config_.num_bidders)
        throw std::invalid_argument(
            "EquilibriumSolver: need 1 <= K < N (with K >= N every bid wins and the "
            "first-price equilibrium payment is unbounded)");
    if (config_.theta_grid_points < 8)
        throw std::invalid_argument("EquilibriumSolver: theta_grid_points too small");
    if (config_.score_grid_points < 16)
        throw std::invalid_argument("EquilibriumSolver: score_grid_points too small");
}

QualityVector EquilibriumSolver::best_quality(double theta) const {
    if (q_lo_.size() == 1) {
        auto objective = [&](double q1) {
            const QualityVector q{q1};
            return scoring_.quality_score(q) - cost_.cost(q, theta);
        };
        return {numeric::grid_refine_maximize(objective, q_lo_[0], q_hi_[0],
                                              config_.quality_grid_points)
                    .x};
    }
    auto objective = [&](const QualityVector& q) {
        return scoring_.quality_score(q) - cost_.cost(q, theta);
    };
    return numeric::coordinate_ascent_maximize(objective, q_lo_, q_hi_,
                                               config_.quality_grid_points)
        .x;
}

EquilibriumSolver::QualityTable EquilibriumSolver::tabulate_qualities() const {
    QualityTable table;
    const std::size_t g = config_.theta_grid_points;
    const double lo = theta_dist_.support_lo();
    const double hi = theta_dist_.support_hi();
    table.thetas.resize(g);
    table.qualities.resize(g);
    table.surpluses.resize(g);
    for (std::size_t j = 0; j < g; ++j) {
        const double theta =
            lo + (hi - lo) * static_cast<double>(j) / static_cast<double>(g - 1);
        table.thetas[j] = theta;
        table.qualities[j] = best_quality(theta);
        table.surpluses[j] = scoring_.quality_score(table.qualities[j])
                             - cost_.cost(table.qualities[j], theta);
    }
    // Single crossing makes u0 non-increasing in theta; clean numerical
    // wiggle so downstream inversion is well posed.
    for (std::size_t j = 1; j < g; ++j) {
        table.surpluses[j] = std::min(table.surpluses[j], table.surpluses[j - 1]);
    }
    return table;
}

EquilibriumStrategy EquilibriumSolver::solve() const {
    const QualityTable table = tabulate_qualities();
    const std::size_t g = table.thetas.size();
    const std::size_t dims = q_lo_.size();

    EquilibriumStrategy strategy;
    strategy.scoring_ = &scoring_;
    strategy.cost_ = &cost_;
    strategy.theta_lo_ = table.thetas.front();
    strategy.theta_hi_ = table.thetas.back();
    strategy.num_bidders_ = config_.num_bidders;
    strategy.num_winners_ = config_.num_winners;

    for (std::size_t d = 0; d < dims; ++d) {
        std::vector<double> qd(g);
        for (std::size_t j = 0; j < g; ++j) qd[j] = table.qualities[j][d];
        strategy.quality_curves_.push_back(std::make_unique<numeric::LinearInterpolator>(
            table.thetas, std::move(qd)));
    }
    strategy.surplus_curve_ =
        std::make_unique<numeric::LinearInterpolator>(table.thetas, table.surpluses);

    const double u_max = table.surpluses.front();
    const double u_min = table.surpluses.back();
    strategy.u_min_ = u_min;
    strategy.u_max_ = u_max;

    if (u_max - u_min < 1e-12) {
        // All types achieve the same score (e.g. constant cost in theta):
        // competition drives the markup to zero and every bidder ties
        // (Proposition 2's setting). Payment = cost.
        strategy.degenerate_ = true;
        return strategy;
    }

    // H(u) = 1 - F(theta(u)) tabulated on the score grid. theta(u) comes from
    // inverting the (theta, u0) table; u0 is non-increasing in theta.
    const numeric::LinearInterpolator theta_of_u =
        numeric::LinearInterpolator::inverse_of(table.thetas, table.surpluses);

    const std::size_t s = config_.score_grid_points;
    std::vector<double> us(s + 1);
    std::vector<double> hs(s + 1);
    std::vector<double> gs(s + 1);
    for (std::size_t i = 0; i <= s; ++i) {
        const double u =
            u_min + (u_max - u_min) * static_cast<double>(i) / static_cast<double>(s);
        us[i] = u;
        hs[i] = std::clamp(1.0 - theta_dist_.cdf(theta_of_u(u)), 0.0, 1.0);
        gs[i] = win_probability(config_.win_model, hs[i], config_.num_bidders,
                                config_.num_winners);
    }
    // Boundary exactness: the best type ties nobody above it, the worst type
    // never beats anyone.
    hs.front() = 0.0;
    gs.front() = win_probability(config_.win_model, 0.0, config_.num_bidders,
                                 config_.num_winners);
    hs.back() = 1.0;
    gs.back() = 1.0;

    std::vector<double> cumulative = numeric::cumulative_trapezoid(us, gs);

    // markup_integral(u) = I(u)/g(u); limit 0 at u_min where both vanish.
    std::vector<double> markup_int(s + 1, 0.0);
    for (std::size_t i = 0; i <= s; ++i) {
        markup_int[i] = gs[i] > k_tiny_prob ? cumulative[i] / gs[i] : 0.0;
    }

    // Markup ODE m' = 1 - m g'/g integrated upward. The layer near u_min is
    // stiff (g'/g ~ (N-K)/(u - u_min)); we seed from the integral solution at
    // the first stable step and fall back to it below the seed.
    const double h = (u_max - u_min) / static_cast<double>(s);
    auto phi_at = [&](std::size_t i) {
        const std::size_t a = i == 0 ? 0 : i - 1;
        const std::size_t b = i == s ? s : i + 1;
        const double dg = gs[b] - gs[a];
        const double du = us[b] - us[a];
        return gs[i] > k_tiny_prob ? (dg / du) / gs[i] : 0.0;
    };
    std::size_t seed = 0;
    while (seed < s && (gs[seed] <= 1e-9 || phi_at(seed) * h > 0.5)) ++seed;

    std::vector<double> markup_euler = markup_int;
    std::vector<double> markup_rk4 = markup_int;
    if (seed < s) {
        double m_e = markup_int[seed];
        double m_r = markup_int[seed];
        for (std::size_t i = seed; i < s; ++i) {
            // Explicit Euler (the paper's Eq. 14).
            m_e = m_e + h * (1.0 - m_e * phi_at(i));
            markup_euler[i + 1] = std::max(0.0, m_e);
            // RK4 with phi linearly interpolated at half steps.
            const double phi_i = phi_at(i);
            const double phi_n = phi_at(i + 1);
            const double phi_h = 0.5 * (phi_i + phi_n);
            const double k1 = 1.0 - m_r * phi_i;
            const double k2 = 1.0 - (m_r + 0.5 * h * k1) * phi_h;
            const double k3 = 1.0 - (m_r + 0.5 * h * k2) * phi_h;
            const double k4 = 1.0 - (m_r + h * k3) * phi_n;
            m_r = m_r + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4);
            markup_rk4[i + 1] = std::max(0.0, m_r);
        }
    }

    strategy.score_cdf_curve_ = std::make_unique<numeric::LinearInterpolator>(us, hs);
    strategy.win_prob_curve_ = std::make_unique<numeric::LinearInterpolator>(us, gs);
    strategy.profit_curve_ =
        std::make_unique<numeric::LinearInterpolator>(us, std::move(cumulative));
    strategy.markup_integral_ =
        std::make_unique<numeric::LinearInterpolator>(us, std::move(markup_int));
    strategy.markup_euler_ =
        std::make_unique<numeric::LinearInterpolator>(us, std::move(markup_euler));
    strategy.markup_rk4_ =
        std::make_unique<numeric::LinearInterpolator>(us, std::move(markup_rk4));
    return strategy;
}

double EquilibriumSolver::payment_che_closed_form(double theta, std::size_t exponent) const {
    const double hi = theta_dist_.support_hi();
    if (theta >= hi) {
        const QualityVector q = best_quality(theta);
        return cost_.cost(q, theta);
    }
    const double one_minus_f = 1.0 - theta_dist_.cdf(theta);
    if (one_minus_f <= k_tiny_prob) {
        const QualityVector q = best_quality(theta);
        return cost_.cost(q, theta);
    }
    const std::size_t panels = 512;
    auto integrand = [&](double t) {
        const QualityVector qt = best_quality(t);
        const double ratio = (1.0 - theta_dist_.cdf(t)) / one_minus_f;
        return cost_.cost_theta_derivative(qt, t)
               * std::pow(ratio, static_cast<double>(exponent));
    };
    const double integral = numeric::trapezoid(integrand, theta, hi, panels);
    const QualityVector q = best_quality(theta);
    return cost_.cost(q, theta) + integral;
}

} // namespace fmore::auction
